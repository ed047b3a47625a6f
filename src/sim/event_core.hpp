// The discrete-event simulation core.
//
// One event loop runs every simulation: store-and-forward MCMP is the
// `flits_per_packet == 1` point of the virtual cut-through model, and
// degradation-under-failure is the same loop with `fault_mode` on (a
// FaultEvent schedule accumulates into a FaultSet and per-arc slow-down
// multipliers; blocked hops time out, re-route through a pluggable Rerouter
// and retransmit with exponential backoff).  Each link serves hops FIFO in
// the order their events pop, and events with equal times pop in insertion
// order: first the injections due that cycle, in packet-index order, then
// the transit events, in the order they were scheduled.  The calendar queue
// in sim/event_queue.hpp keeps that order with O(1) push and pop.
//
// Two ways to feed traffic:
//  * pre-routed: a span of SimPacket whose paths were materialised up
//    front;
//  * lazy: a span of TrafficPair plus a RoutePolicy — the core sorts the
//    pairs by injection time and routes them in chunks through
//    RoutePolicy::route_paths the first time a packet's event pops, so a
//    long-horizon workload pays for routing as traffic enters the network
//    (and batch-capable policies amortise it through route_batch and the
//    relative-permutation cache) instead of materialising every path
//    before cycle 0.
//
// Every run reports SimTelemetry: events processed, queue high-water mark,
// wall time split between routing and transit, lazy chunk count and the
// policy's route-cache hit rate.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "networks/route_policy.hpp"
#include "sim/packet.hpp"
#include "topology/graph.hpp"

namespace scg {

struct EventSimConfig {
  /// 1 = store-and-forward; > 1 = virtual cut-through with this many flits.
  int flits_per_packet = 1;
  int onchip_cycles_per_flit = 1;
  int offchip_cycles_per_flit = 1;  ///< set to d_I under a unit pin budget

  /// Enables the degradation-under-failure machinery: the max_cycles guard,
  /// fault accumulation from the schedule, timeout/re-route/backoff on
  /// blocked hops, and the delivered/latency-percentile/stretch accounting.
  bool fault_mode = false;
  int timeout_cycles = 4;    ///< detection delay when a hop is dead
  int max_retransmits = 8;   ///< rerouting attempts before dropping
  std::uint64_t max_cycles = std::uint64_t{1} << 32;  ///< hard stop

  /// Lazy routing granularity: pairs routed per RoutePolicy::route_paths
  /// call (in injection order).
  std::size_t route_chunk = 4096;
};

/// Percentiles, timeout and stretch fields are populated only in fault
/// mode.  `truncated` mirrors telemetry.truncated: the max_cycles watchdog
/// tripped and every packet still in flight past the horizon was dropped —
/// the counts are a valid partial state (conservation is asserted), not a
/// silent stop.
struct EventSimResult {
  std::uint64_t packets = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  double delivered_fraction = 1.0;
  std::uint64_t completion_cycles = 0;  ///< time the last packet arrives
  double avg_latency = 0.0;             ///< mean (arrival - inject), delivered
  std::uint64_t p50_latency = 0;
  std::uint64_t p99_latency = 0;
  std::uint64_t total_hops = 0;
  std::uint64_t offchip_hops = 0;       ///< intercluster transmissions
  std::uint64_t flit_hops = 0;          ///< total_hops * flits_per_packet
  double max_link_busy = 0.0;           ///< busiest link's busy cycles
  std::uint64_t timeouts = 0;           ///< dead-hop detections
  std::uint64_t retransmissions = 0;    ///< successful re-route + resend
  double avg_stretch = 0.0;  ///< hops walked / pristine path hops (delivered)
  double max_stretch = 0.0;
  bool truncated = false;    ///< max_cycles watchdog tripped (partial result)
  SimTelemetry telemetry;
};

/// Pre-routed entry point: every packet carries its path.  Paths whose hops
/// are not arcs of `g` raise std::invalid_argument, as do paths not running
/// src..dst.
///
/// The fault arguments need `cfg.fault_mode`; passing a non-empty
/// `schedule`, a `reroute` or an `observer` with it off raises
/// std::invalid_argument rather than silently running fault-free.  In fault
/// mode the schedule applies in time order (stable, so same-cycle events
/// resolve in script order): repairs remove entries from the accumulated
/// FaultSet, node crashes take out every incident channel, and kLinkSlow
/// multiplies the per-flit cycles of both directions of a channel
/// (occupancy = flits * base_cycles * multiplier).  A packet reaching a
/// dead hop waits `timeout_cycles`, asks `reroute` for a repaired path
/// from its current node and retransmits after exponential backoff; it is
/// dropped after `max_retransmits` attempts, when no surviving route
/// exists, or at once when `reroute` is null.  `observer`, when non-null,
/// receives every hop/timeout/delivery/drop synchronously (see
/// SimObserver).
EventSimResult simulate_events(const Graph& g, const OffchipTable& offchip,
                               std::span<const SimPacket> packets,
                               const EventSimConfig& cfg,
                               std::span<const FaultEvent> schedule = {},
                               const Rerouter* reroute = nullptr,
                               SimObserver* observer = nullptr);

/// Lazy entry point: routes `pairs` through `policy` in injection-time
/// order, `cfg.route_chunk` pairs per batch, the first time each packet's
/// injection event pops.  Identical results to routing every pair up front
/// and calling the pre-routed form (the event sequence does not depend on
/// when paths materialise).  The fault arguments are as above.
EventSimResult simulate_events(const Graph& g, const OffchipTable& offchip,
                               std::span<const TrafficPair> pairs,
                               RoutePolicy& policy, const EventSimConfig& cfg,
                               std::span<const FaultEvent> schedule = {},
                               const Rerouter* reroute = nullptr,
                               SimObserver* observer = nullptr);

/// Adapts the fault-aware router into the Rerouter slot.  The router must
/// outlive the returned callable.
Rerouter make_rerouter(const FaultRouter& router);

/// The canonical MCMP link classification for a Cayley network: nucleus
/// generators are on-chip, super generators off-chip.
OffchipTable mcmp_offchip_table(const NetworkSpec& net, const Graph& g);

}  // namespace scg
