// Shared value types for the simulation layer: packets, traffic pairs, the
// FaultEvent schedule format, the observer hook and the per-arc link
// classification.  This header depends only on the topology layer, so code
// that only builds schedules or traffic (chaos/fault_schedule.hpp) does not
// pull in the routing layer that sim/event_core.hpp needs.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "topology/fault_set.hpp"
#include "topology/graph.hpp"

namespace scg {

struct SimPacket {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  std::vector<std::uint32_t> path;  ///< node sequence src..dst (inclusive)
  std::uint64_t inject_time = 0;
};

/// A packet that has not been routed yet: endpoints + injection time only.
/// The event core routes these lazily at injection time through a
/// RoutePolicy instead of materialising every path before cycle 0.
struct TrafficPair {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  std::uint64_t inject_time = 0;
};

/// The fault taxonomy a fault-mode simulation schedule is written in.
enum class FaultEventKind : std::uint8_t {
  kLinkFail,    ///< u<->v channel dies (both directions)
  kLinkRepair,  ///< u<->v channel comes back
  kNodeFail,    ///< node u crashes, taking out every incident channel
  kNodeRepair,  ///< node u comes back
  kLinkSlow,    ///< u<->v turns fail-slow: per-flit cycles multiply by
                ///< `slow_multiplier` (1 restores nominal speed)
};

/// One entry of a chaos schedule.  Events applying at the same cycle are
/// processed in schedule order (the sort is stable), so a same-cycle
/// fail+repair pair resolves to whichever the script listed last.
struct FaultEvent {
  std::uint64_t time = 0;
  FaultEventKind kind = FaultEventKind::kLinkFail;
  std::uint64_t u = 0;
  std::uint64_t v = 0;                 ///< unused for node events
  std::uint32_t slow_multiplier = 1;   ///< kLinkSlow only

  static FaultEvent link_fail(std::uint64_t t, std::uint64_t u, std::uint64_t v) {
    return {t, FaultEventKind::kLinkFail, u, v, 1};
  }
  static FaultEvent link_repair(std::uint64_t t, std::uint64_t u, std::uint64_t v) {
    return {t, FaultEventKind::kLinkRepair, u, v, 1};
  }
  static FaultEvent node_fail(std::uint64_t t, std::uint64_t u) {
    return {t, FaultEventKind::kNodeFail, u, 0, 1};
  }
  static FaultEvent node_repair(std::uint64_t t, std::uint64_t u) {
    return {t, FaultEventKind::kNodeRepair, u, 0, 1};
  }
  static FaultEvent link_slow(std::uint64_t t, std::uint64_t u, std::uint64_t v,
                              std::uint32_t multiplier) {
    return {t, FaultEventKind::kLinkSlow, u, v, multiplier};
  }
};

/// Why a fault-mode packet was dropped, as reported to SimObserver.
enum class DropReason : std::uint8_t {
  kRetransmitBudget,  ///< max_retransmits exceeded
  kUnreachable,       ///< the rerouter found no surviving route
  kWatchdog,          ///< the max_cycles watchdog tripped mid-flight
};

/// Optional hook into fault-mode event-core runs, called synchronously from
/// the event loop.  Two consumers: the chaos InvariantChecker records a
/// full trace for post-sim auditing, and AdaptiveFaultPolicy feeds per-arc
/// EWMA health scores from the same signals a real NIC would see (per-hop
/// service time, timeouts).  `time` for on_hop is the cycle the hop was
/// *checked* against the fault set (the event time, before any link-FIFO
/// queueing delay); `cycles` is the occupancy the traversal charged, which
/// inflates on fail-slow links.
class SimObserver {
 public:
  virtual ~SimObserver() = default;
  virtual void on_hop(std::uint64_t time, std::uint32_t packet, std::uint64_t u,
                      std::uint64_t v, std::uint64_t cycles) = 0;
  virtual void on_timeout(std::uint64_t time, std::uint32_t packet,
                          std::uint64_t u, std::uint64_t v) = 0;
  virtual void on_delivered(std::uint64_t time, std::uint32_t packet) = 0;
  virtual void on_dropped(std::uint64_t time, std::uint32_t packet,
                          DropReason reason) = 0;
};

/// Computes a repaired node path `at..dst` avoiding `faults`, or an empty
/// vector when no surviving route exists.
using Rerouter = std::function<std::vector<std::uint32_t>(
    std::uint64_t at, std::uint64_t dst, const FaultSet& faults)>;

/// Per-arc link classification, precomputed once per simulation.  The
/// simulators used to call a std::function<bool(int32_t)> on every event —
/// a type-erased indirect call on the hottest path.  This table memoises
/// the predicate per distinct edge tag and stores one byte per arc, so the
/// event loop does a single indexed load instead.
class OffchipTable {
 public:
  OffchipTable() = default;

  /// Classifies every arc of `g` by `is_offchip(tag)` (called once per
  /// distinct tag, not once per arc).
  OffchipTable(const Graph& g, const std::function<bool(std::int32_t)>& is_offchip);

  /// Every arc on-chip (false) or off-chip (true).
  static OffchipTable uniform(const Graph& g, bool offchip);

  bool offchip(std::uint64_t arc) const { return by_arc_[arc] != 0; }
  std::uint64_t num_arcs() const { return by_arc_.size(); }

 private:
  std::vector<std::uint8_t> by_arc_;
};

/// Per-run engine telemetry, threaded through every simulator result.
/// Counter fields (events, queue peak, chunks, cache) are deterministic;
/// the *_ns wall-clock splits are host measurements and must never be
/// compared across runs as invariants.
struct SimTelemetry {
  std::uint64_t events_processed = 0;  ///< event-queue pops
  std::uint64_t queue_peak = 0;        ///< event-queue high-water mark
  std::uint64_t routing_ns = 0;        ///< wall time spent routing packets
  std::uint64_t transit_ns = 0;        ///< wall time spent in the event loop
  std::uint64_t route_chunks = 0;      ///< lazy route_batch chunks issued
  std::uint64_t cache_hits = 0;        ///< policy route-cache hits this run
  std::uint64_t cache_misses = 0;      ///< policy route-cache misses this run
  /// The max_cycles watchdog tripped: every packet still in flight past the
  /// horizon was dropped (DropReason::kWatchdog) and the result is partial.
  /// Conservation (packets == delivered + dropped) still holds on the
  /// partial state — the core asserts it before returning.
  bool truncated = false;

  double cache_hit_rate() const {
    const std::uint64_t total = cache_hits + cache_misses;
    return total > 0 ? static_cast<double>(cache_hits) / static_cast<double>(total)
                     : 0.0;
  }
};

}  // namespace scg
