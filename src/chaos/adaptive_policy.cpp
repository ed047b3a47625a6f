#include "chaos/adaptive_policy.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace scg {
namespace {

constexpr double kEwmaAlpha = 0.3;  ///< weight of the newest sample
/// Quarantine a channel when its EWMA exceeds this multiple of its baseline.
constexpr double kQuarantineFactor = 3.0;
/// One timeout is scored as this many multiples of the channel baseline (a
/// dead hop is worse than any slow one; 8x trips the 3x factor from a
/// healthy EWMA in a single observation).
constexpr double kTimeoutPenalty = 8.0;
/// Probation before a quarantined channel is re-admitted.
constexpr std::uint64_t kQuarantineCycles = 1024;

}  // namespace

void AdaptiveFaultPolicy::route_path(std::uint64_t src, std::uint64_t dst,
                                     std::vector<std::uint32_t>& out) {
  sweep(now_);
  RouteOutcome outcome = router_.route(src, dst, quarantine_);
  if (!outcome.delivered()) {
    // Quarantine is advisory: if avoiding every suspect channel strands the
    // packet, route as if all were healthy (the event core detects truly
    // dead hops and comes back through rerouter()).
    outcome = router_.route(src, dst, FaultSet{});
  }
  if (!outcome.delivered()) {
    throw std::runtime_error("adaptive policy: no route from " +
                             std::to_string(src) + " to " +
                             std::to_string(dst));
  }
  out = narrow_path(outcome.path);
}

void AdaptiveFaultPolicy::on_hop(std::uint64_t time, std::uint32_t packet,
                                 std::uint64_t u, std::uint64_t v,
                                 std::uint64_t cycles) {
  (void)packet;
  observe(time, u, v, static_cast<double>(cycles));
}

void AdaptiveFaultPolicy::on_timeout(std::uint64_t time, std::uint32_t packet,
                                     std::uint64_t u, std::uint64_t v) {
  (void)packet;
  ChannelHealth& h = health_[chan(u, v)];
  const double base = h.samples > 0 ? h.baseline : 1.0;
  observe(time, u, v, kTimeoutPenalty * base);
}

void AdaptiveFaultPolicy::observe(std::uint64_t time, std::uint64_t u,
                                  std::uint64_t v, double sample) {
  now_ = std::max(now_, time);
  ChannelHealth& h = health_[chan(u, v)];
  if (h.samples == 0) {
    h.baseline = sample;
    h.ewma = sample;
  } else {
    h.baseline = std::min(h.baseline, sample);
    h.ewma = kEwmaAlpha * sample + (1.0 - kEwmaAlpha) * h.ewma;
  }
  ++h.samples;
  if (!h.quarantined && h.ewma > kQuarantineFactor * h.baseline) {
    h.quarantined = true;
    h.quarantined_until = time + kQuarantineCycles;
    quarantine_.fail_link(u, v);
    ++quarantine_events_;
  } else if (h.quarantined) {
    // Fresh evidence while quarantined (a packet was already committed to
    // the channel) extends probation from the newest observation.
    h.quarantined_until = time + kQuarantineCycles;
  }
}

void AdaptiveFaultPolicy::sweep(std::uint64_t now) {
  if (quarantine_.empty()) return;
  for (auto& [key, h] : health_) {
    if (h.quarantined && now >= h.quarantined_until) {
      // Probation over: re-admit and forgive the EWMA so the channel is not
      // instantly re-indicted on stale history.  A still-slow link
      // re-quarantines itself within ~1/alpha fresh samples.
      h.quarantined = false;
      h.ewma = h.baseline;
      quarantine_.repair_link(key.first, key.second);
      ++readmissions_;
    }
  }
}

Rerouter AdaptiveFaultPolicy::rerouter() {
  return [this](std::uint64_t at, std::uint64_t dst,
                const FaultSet& truth) -> std::vector<std::uint32_t> {
    sweep(now_);
    FaultSet merged = truth;
    merged.merge(quarantine_);
    RouteOutcome outcome = router_.route(at, dst, merged);
    if (!outcome.delivered()) {
      // Never let an advisory quarantine strand a deliverable packet.
      outcome = router_.route(at, dst, truth);
    }
    if (!outcome.delivered()) return {};
    return narrow_path(outcome.path);
  };
}

double AdaptiveFaultPolicy::health(std::uint64_t u, std::uint64_t v) const {
  const auto it = health_.find(chan(u, v));
  if (it == health_.end() || it->second.samples == 0 ||
      it->second.baseline <= 0.0) {
    return 1.0;
  }
  return it->second.ewma / it->second.baseline;
}

void AdaptiveFaultPolicy::reset() {
  health_.clear();
  quarantine_.clear();
  now_ = 0;
  quarantine_events_ = 0;
  readmissions_ = 0;
}

void register_adaptive_policy() {
  register_route_policy("adaptive", [](const NetworkSpec& net) {
    return std::make_unique<AdaptiveFaultPolicy>(net);
  });
}

}  // namespace scg
