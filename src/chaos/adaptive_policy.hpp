// AdaptiveFaultPolicy — link-health-adaptive routing.  The policy is both a
// RoutePolicy (so the event core's lazy router can use it) and a SimObserver
// (so the same run feeds it the signals a real NIC sees: per-hop service
// time and timeouts).  It keeps a per-channel EWMA (alpha 0.3) of observed
// service cycles against the channel's healthy baseline; a channel whose
// EWMA inflates past 3x baseline — a fail-slow link, or one that timed out
// (scored as 8x baseline) — is quarantined: routes avoid it as if it had
// failed.  Quarantine is *advisory* and expires: after 1024 cycles without
// fresh evidence the channel is re-admitted with a forgiven (reset) EWMA,
// so healed transients return to service while a still-sick link re-indicts
// itself within ~1/alpha samples.  The four numbers are the constants at the
// top of adaptive_policy.cpp.
//
// The rerouter() adaptor is the load-bearing guarantee: it routes around
// the union of the ground-truth FaultSet and the quarantine set, but falls
// back to ground truth alone when the union leaves the destination
// unreachable.  Quarantine can therefore change which route a packet takes,
// never whether one exists — the event core's "dropped means unreachable"
// invariant survives adaptive routing.
//
// Single-threaded by design: the event loop calls route_paths and the
// observer hooks from one thread, interleaved.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "networks/route_policy.hpp"
#include "sim/packet.hpp"
#include "topology/fault_set.hpp"

namespace scg {

class AdaptiveFaultPolicy final : public RoutePolicy, public SimObserver {
 public:
  explicit AdaptiveFaultPolicy(const NetworkSpec& net) : router_(net) {}

  // -- RoutePolicy --
  std::string name() const override { return "adaptive"; }
  void route_path(std::uint64_t src, std::uint64_t dst,
                  std::vector<std::uint32_t>& out) override;
  RouteCacheStats cache_stats() const override {
    return router_.engine().cache_stats();
  }

  // -- SimObserver (health feedback) --
  void on_hop(std::uint64_t time, std::uint32_t packet, std::uint64_t u,
              std::uint64_t v, std::uint64_t cycles) override;
  void on_timeout(std::uint64_t time, std::uint32_t packet, std::uint64_t u,
                  std::uint64_t v) override;
  void on_delivered(std::uint64_t /*time*/, std::uint32_t /*packet*/) override {}
  void on_dropped(std::uint64_t /*time*/, std::uint32_t /*packet*/,
                  DropReason /*reason*/) override {}

  /// Event-core Rerouter that avoids ground-truth faults *and* quarantined
  /// channels, with the ground-truth-only fallback described above.  The
  /// policy must outlive the returned callable.
  Rerouter rerouter();

  /// EWMA / baseline ratio for the u<->v channel (1.0 when unobserved).
  double health(std::uint64_t u, std::uint64_t v) const;

  bool quarantined(std::uint64_t u, std::uint64_t v) const {
    return quarantine_.arc_failed(u, v);
  }
  std::uint64_t quarantine_count() const { return quarantine_events_; }
  std::uint64_t readmit_count() const { return readmissions_; }

  /// Forgets all health state (fresh campaign cell).
  void reset();

 private:
  struct ChannelHealth {
    double ewma = 0.0;
    double baseline = 0.0;  ///< min observed service cycles (healthy floor)
    std::uint64_t samples = 0;
    bool quarantined = false;
    std::uint64_t quarantined_until = 0;
  };
  static std::pair<std::uint64_t, std::uint64_t> chan(std::uint64_t u,
                                                      std::uint64_t v) {
    return {std::min(u, v), std::max(u, v)};
  }

  void observe(std::uint64_t time, std::uint64_t u, std::uint64_t v,
               double sample);
  void sweep(std::uint64_t now);  ///< re-admit expired quarantines

  FaultRouter router_;
  std::unordered_map<std::pair<std::uint64_t, std::uint64_t>, ChannelHealth,
                     NodePairHash>
      health_;
  FaultSet quarantine_;
  std::uint64_t now_ = 0;  ///< latest feedback time seen
  std::uint64_t quarantine_events_ = 0;
  std::uint64_t readmissions_ = 0;
};

/// Registers the "adaptive" name in the RoutePolicy registry.  An explicit
/// call (like register_oracle_policy) because static-library registrars get
/// dropped by the linker.  Idempotent.
void register_adaptive_policy();

}  // namespace scg
