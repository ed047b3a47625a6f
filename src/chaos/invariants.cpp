#include "chaos/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "topology/bfs.hpp"
#include "topology/fault_set.hpp"

namespace scg {
namespace {

constexpr std::size_t kMaxMessages = 16;

/// Assertion sink: counts every check, records the first kMaxMessages
/// failures verbatim.
struct Audit {
  InvariantReport* report;

  void check(bool ok, const std::string& what) {
    ++report->checks;
    if (ok) return;
    ++report->violations;
    if (report->messages.size() < kMaxMessages) {
      report->messages.push_back(what);
    }
  }
};

/// Forward-only replay of the chaos schedule, mirroring the event core's
/// apply_faults_until: all events with time <= now are applied before any
/// query at `now`.  Tracks the FaultSet and the per-channel slow
/// multipliers.
struct FaultReplay {
  std::vector<FaultEvent> events;
  std::size_t next = 0;
  FaultSet faults;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint32_t> slow;

  explicit FaultReplay(std::span<const FaultEvent> schedule)
      : events(schedule.begin(), schedule.end()) {
    std::stable_sort(events.begin(), events.end(),
                     [](const FaultEvent& a, const FaultEvent& b) {
                       return a.time < b.time;
                     });
  }

  static std::pair<std::uint64_t, std::uint64_t> chan(std::uint64_t u,
                                                      std::uint64_t v) {
    return {std::min(u, v), std::max(u, v)};
  }

  void advance(std::uint64_t now) {
    while (next < events.size() && events[next].time <= now) {
      const FaultEvent& f = events[next++];
      switch (f.kind) {
        case FaultEventKind::kLinkFail:
          faults.fail_link(f.u, f.v);
          break;
        case FaultEventKind::kLinkRepair:
          faults.repair_link(f.u, f.v);
          break;
        case FaultEventKind::kNodeFail:
          faults.fail_node(f.u);
          break;
        case FaultEventKind::kNodeRepair:
          faults.repair_node(f.u);
          break;
        case FaultEventKind::kLinkSlow:
          slow[chan(f.u, f.v)] = std::max<std::uint32_t>(1, f.slow_multiplier);
          break;
      }
    }
  }

  std::uint32_t slow_of(std::uint64_t u, std::uint64_t v) const {
    const auto it = slow.find(chan(u, v));
    return it == slow.end() ? 1 : it->second;
  }
};

std::string arc_str(std::uint64_t u, std::uint64_t v) {
  return std::to_string(u) + "->" + std::to_string(v);
}

}  // namespace

InvariantReport check_sim_invariants(const Graph& g, const OffchipTable& offchip,
                                     std::span<const TrafficPair> pairs,
                                     const EventSimConfig& cfg,
                                     std::span<const FaultEvent> schedule,
                                     const EventSimResult& result,
                                     const SimTraceRecorder& trace,
                                     bool complete_rerouter) {
  InvariantReport report;
  Audit audit{&report};
  const std::size_t n = pairs.size();
  const std::uint64_t flits =
      static_cast<std::uint64_t>(std::max(1, cfg.flits_per_packet));

  // ---- conservation and counter recounts ---------------------------------
  audit.check(result.packets == n, "result.packets != pairs given");
  audit.check(result.delivered + result.dropped == result.packets,
              "conservation: delivered + dropped != packets");
  audit.check(result.delivered == trace.deliveries.size(),
              "result.delivered disagrees with delivery trace");
  audit.check(result.dropped == trace.drops.size(),
              "result.dropped disagrees with drop trace");
  audit.check(result.total_hops == trace.hops.size(),
              "result.total_hops disagrees with hop trace");
  audit.check(result.timeouts == trace.timeouts.size(),
              "result.timeouts disagrees with timeout trace");
  audit.check(result.flit_hops == result.total_hops * flits,
              "flit_hops != total_hops * flits");

  std::uint64_t watchdog_drops = 0, terminal_drops = 0;
  for (const SimTraceRecorder::Drop& d : trace.drops) {
    if (d.reason == DropReason::kWatchdog) {
      ++watchdog_drops;
    } else {
      ++terminal_drops;  // budget-exhausted or unreachable: a timeout pop
    }
  }
  // Every non-watchdog drop consumed its final timeout pop; the rest of the
  // timeouts each bought a retransmission.
  audit.check(result.retransmissions == result.timeouts - terminal_drops,
              "retransmissions != timeouts - (budget + unreachable drops)");
  audit.check(result.truncated == (watchdog_drops > 0),
              "truncated flag disagrees with watchdog drops in trace");
  audit.check(result.telemetry.truncated == result.truncated,
              "telemetry.truncated disagrees with result.truncated");
  // Each priority-queue pop is exactly one of: a successful traversal, an
  // arrival, a blocked-hop timeout, or a watchdog drop.
  audit.check(result.telemetry.events_processed ==
                  result.total_hops + result.delivered + result.timeouts +
                      watchdog_drops,
              "events_processed != hops + deliveries + timeouts + watchdog");
  const double expect_fraction =
      result.packets > 0 ? static_cast<double>(result.delivered) /
                               static_cast<double>(result.packets)
                         : 1.0;
  audit.check(result.delivered_fraction == expect_fraction,
              "delivered_fraction != delivered / packets");
  std::uint64_t last_delivery = 0;
  for (const SimTraceRecorder::Delivery& d : trace.deliveries) {
    last_delivery = std::max(last_delivery, d.time);
  }
  audit.check(result.completion_cycles == last_delivery,
              "completion_cycles != latest delivery time");

  // ---- per-packet terminal uniqueness and walk integrity -----------------
  // 0 = in flight, 1 = delivered, 2 = dropped.
  std::vector<std::uint8_t> state(n, 0);
  std::vector<std::uint64_t> terminal_time(n, 0);
  std::vector<std::uint8_t> terminal_reason(n, 0);
  bool terminals_unique = true;
  for (const SimTraceRecorder::Delivery& d : trace.deliveries) {
    if (d.packet >= n || state[d.packet] != 0) {
      terminals_unique = false;
      continue;
    }
    state[d.packet] = 1;
    terminal_time[d.packet] = d.time;
  }
  for (const SimTraceRecorder::Drop& d : trace.drops) {
    if (d.packet >= n || state[d.packet] != 0) {
      terminals_unique = false;
      continue;
    }
    state[d.packet] = 2;
    terminal_time[d.packet] = d.time;
    terminal_reason[d.packet] = static_cast<std::uint8_t>(d.reason);
  }
  audit.check(terminals_unique, "a packet reached two terminal states");
  audit.check(std::count(state.begin(), state.end(), std::uint8_t{0}) == 0,
              "a packet never reached a terminal state");

  // Walk integrity: recorded hops chain forward from src; a reroute resumes
  // at the node where the packet stalled, so the chain never breaks.
  std::vector<std::uint64_t> position(n);
  std::vector<std::uint8_t> walk_ok(n, 1);
  for (std::size_t p = 0; p < n; ++p) position[p] = pairs[p].src;
  bool hop_times_ordered = true, arcs_exist = true;
  std::uint64_t prev_time = 0;
  for (const SimTraceRecorder::Hop& h : trace.hops) {
    if (h.time < prev_time) hop_times_ordered = false;
    prev_time = h.time;
    if (h.packet >= n) continue;
    if (position[h.packet] != h.u) walk_ok[h.packet] = 0;
    position[h.packet] = h.v;
    if (g.find_arc(h.u, h.v) == g.num_links()) arcs_exist = false;
    if (h.time < pairs[h.packet].inject_time) walk_ok[h.packet] = 0;
  }
  audit.check(hop_times_ordered, "hop trace times are not nondecreasing");
  audit.check(arcs_exist, "a recorded hop crossed a non-existent arc");
  std::uint64_t broken_walks = 0, bad_terminals = 0;
  for (std::size_t p = 0; p < n; ++p) {
    if (!walk_ok[p]) ++broken_walks;
    if (state[p] == 1 && position[p] != pairs[p].dst) ++bad_terminals;
    // A packet dropped on a blocked hop or budget sat short of dst; only a
    // watchdog drop can catch a packet whose tail was already at dst.
    if (state[p] == 2 && position[p] == pairs[p].dst &&
        terminal_reason[p] != static_cast<std::uint8_t>(DropReason::kWatchdog)) {
      ++bad_terminals;
    }
    if (state[p] != 0 && terminal_time[p] < pairs[p].inject_time) {
      ++bad_terminals;
    }
  }
  audit.check(broken_walks == 0,
              std::to_string(broken_walks) + " packets with non-contiguous walks");
  audit.check(bad_terminals == 0,
              std::to_string(bad_terminals) +
                  " packets delivered away from dst or dropped at dst");

  // ---- ghost-traversal and fail-slow replay ------------------------------
  {
    FaultReplay replay(schedule);
    std::uint64_t ghost_hops = 0, bad_occupancy = 0;
    for (const SimTraceRecorder::Hop& h : trace.hops) {
      replay.advance(h.time);
      if (replay.faults.blocks(h.u, h.v)) {
        ++ghost_hops;
        if (report.messages.size() < kMaxMessages) {
          report.messages.push_back("ghost hop across dead channel " +
                                    arc_str(h.u, h.v) + " at cycle " +
                                    std::to_string(h.time));
        }
      }
      const std::uint64_t arc = g.find_arc(h.u, h.v);
      if (arc != g.num_links()) {
        const std::uint64_t base = offchip.offchip(arc)
                                       ? static_cast<std::uint64_t>(
                                             cfg.offchip_cycles_per_flit)
                                       : static_cast<std::uint64_t>(
                                             cfg.onchip_cycles_per_flit);
        if (h.cycles != flits * base * replay.slow_of(h.u, h.v)) {
          ++bad_occupancy;
        }
      }
    }
    audit.check(ghost_hops == 0,
                std::to_string(ghost_hops) +
                    " hops crossed a channel dead at traversal time");
    audit.check(bad_occupancy == 0,
                std::to_string(bad_occupancy) +
                    " hops charged an occupancy != flits * base * slow");
  }

  // ---- timeouts really were blocked --------------------------------------
  {
    FaultReplay replay(schedule);
    std::uint64_t phantom_timeouts = 0;
    for (const SimTraceRecorder::Timeout& t : trace.timeouts) {
      replay.advance(t.time);
      if (!replay.faults.blocks(t.u, t.v)) ++phantom_timeouts;
    }
    audit.check(phantom_timeouts == 0,
                std::to_string(phantom_timeouts) +
                    " timeouts on hops that were alive at the time");
  }

  // ---- reachability differential for unreachable drops -------------------
  if (complete_rerouter) {
    // Where each packet sat when it was dropped: its last recorded timeout
    // (the drop happens inside that timeout's pop).
    std::vector<std::uint64_t> stall_at(n);
    for (std::size_t p = 0; p < n; ++p) stall_at[p] = pairs[p].src;
    std::size_t next_timeout = 0;
    FaultReplay replay(schedule);
    std::uint64_t false_unreachable = 0;
    for (const SimTraceRecorder::Drop& d : trace.drops) {
      while (next_timeout < trace.timeouts.size() &&
             trace.timeouts[next_timeout].time <= d.time) {
        const SimTraceRecorder::Timeout& t = trace.timeouts[next_timeout++];
        if (t.packet < n) stall_at[t.packet] = t.u;
      }
      if (d.reason != DropReason::kUnreachable || d.packet >= n) continue;
      replay.advance(d.time);
      const FaultFiltered<Graph> view(g, replay.faults);
      const std::vector<std::uint16_t> dist =
          bfs_distances(view, stall_at[d.packet]);
      if (dist[pairs[d.packet].dst] != kUnreached) {
        ++false_unreachable;
        if (report.messages.size() < kMaxMessages) {
          report.messages.push_back(
              "packet " + std::to_string(d.packet) + " dropped unreachable at " +
              std::to_string(stall_at[d.packet]) + " cycle " +
              std::to_string(d.time) + " but BFS reaches dst " +
              std::to_string(pairs[d.packet].dst));
        }
      }
    }
    audit.check(false_unreachable == 0,
                std::to_string(false_unreachable) +
                    " unreachable-drops contradicted by BFS differential");
  }

  return report;
}

}  // namespace scg
