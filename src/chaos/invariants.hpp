// Post-sim invariant checking for chaos runs.  A SimTraceRecorder captures
// the full observer stream of a fault-mode run (every hop with its check
// time and charged occupancy, every timeout, every terminal event); the
// checker then replays the chaos schedule against the trace and audits:
//
//  * conservation — delivered + dropped == packets, every packet reaches
//    exactly one terminal state, and every counter in the result matches a
//    recount of the trace (total_hops, timeouts, retransmissions ==
//    timeouts - non-watchdog drops, flit_hops, delivered_fraction,
//    completion_cycles, the events_processed identity, the truncated flag);
//  * no ghost traversal — no hop crossed a channel that was dead at the
//    cycle the event core checked it (the schedule is replayed to exactly
//    the fault state the core saw: all events with time <= check time
//    applied), and every recorded timeout really was blocked at its time;
//  * fail-slow accounting — every hop's charged occupancy equals
//    flits x base cycles x the channel's slow multiplier at that time;
//  * walk integrity — each packet's recorded hops chain src -> ... -> dst
//    over real arcs of the graph, with reroutes resuming exactly where the
//    packet stalled;
//  * reachability differential — every packet dropped as unreachable is
//    re-checked by an independent BFS over the FaultFiltered view frozen at
//    the drop cycle: the destination must really be unreachable from where
//    the packet sat (only meaningful when the run used a complete rerouter
//    such as FaultRouter or AdaptiveFaultPolicy::rerouter()).
//
// The checker shares no code with the event loop's fault bookkeeping beyond
// FaultSet itself — it is a differential audit, not a re-run.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "sim/event_core.hpp"
#include "sim/packet.hpp"
#include "topology/graph.hpp"

namespace scg {

/// Appends every observer callback of one run into flat per-kind logs.
/// Records arrive in event-pop order, so each log is nondecreasing in time
/// (the checker verifies that too).
class SimTraceRecorder final : public SimObserver {
 public:
  struct Hop {
    std::uint64_t time;  ///< cycle the hop was checked against the fault set
    std::uint32_t packet;
    std::uint64_t u, v;
    std::uint64_t cycles;  ///< occupancy charged (inflates on fail-slow)
  };
  struct Timeout {
    std::uint64_t time;
    std::uint32_t packet;
    std::uint64_t u, v;
  };
  struct Delivery {
    std::uint64_t time;
    std::uint32_t packet;
  };
  struct Drop {
    std::uint64_t time;
    std::uint32_t packet;
    DropReason reason;
  };

  void on_hop(std::uint64_t time, std::uint32_t packet, std::uint64_t u,
              std::uint64_t v, std::uint64_t cycles) override {
    hops.push_back({time, packet, u, v, cycles});
  }
  void on_timeout(std::uint64_t time, std::uint32_t packet, std::uint64_t u,
                  std::uint64_t v) override {
    timeouts.push_back({time, packet, u, v});
  }
  void on_delivered(std::uint64_t time, std::uint32_t packet) override {
    deliveries.push_back({time, packet});
  }
  void on_dropped(std::uint64_t time, std::uint32_t packet,
                  DropReason reason) override {
    drops.push_back({time, packet, reason});
  }

  void clear() {
    hops.clear();
    timeouts.clear();
    deliveries.clear();
    drops.clear();
  }

  std::vector<Hop> hops;
  std::vector<Timeout> timeouts;
  std::vector<Delivery> deliveries;
  std::vector<Drop> drops;
};

/// Fans one observer stream out to several sinks (e.g. a recorder plus an
/// AdaptiveFaultPolicy), in the order given.
class TeeObserver final : public SimObserver {
 public:
  TeeObserver(std::initializer_list<SimObserver*> sinks) : sinks_(sinks) {}

  void on_hop(std::uint64_t time, std::uint32_t packet, std::uint64_t u,
              std::uint64_t v, std::uint64_t cycles) override {
    for (SimObserver* s : sinks_) s->on_hop(time, packet, u, v, cycles);
  }
  void on_timeout(std::uint64_t time, std::uint32_t packet, std::uint64_t u,
                  std::uint64_t v) override {
    for (SimObserver* s : sinks_) s->on_timeout(time, packet, u, v);
  }
  void on_delivered(std::uint64_t time, std::uint32_t packet) override {
    for (SimObserver* s : sinks_) s->on_delivered(time, packet);
  }
  void on_dropped(std::uint64_t time, std::uint32_t packet,
                  DropReason reason) override {
    for (SimObserver* s : sinks_) s->on_dropped(time, packet, reason);
  }

 private:
  std::vector<SimObserver*> sinks_;
};

struct InvariantReport {
  std::uint64_t checks = 0;      ///< individual assertions evaluated
  std::uint64_t violations = 0;  ///< assertions that failed
  /// Human-readable detail for the first violations (capped; `violations`
  /// keeps the true count).
  std::vector<std::string> messages;

  bool ok() const { return violations == 0; }
};

/// Audits one chaos run.  `pairs` are the run's endpoints in packet-index
/// order; `cfg` must be the config the run used (flits and max_cycles feed
/// the occupancy and watchdog checks).  Set `complete_rerouter` false when
/// the run used no rerouter or an incomplete one — that disables only the
/// unreachable-drop BFS differential, which would be a false positive
/// otherwise.
InvariantReport check_sim_invariants(const Graph& g, const OffchipTable& offchip,
                                     std::span<const TrafficPair> pairs,
                                     const EventSimConfig& cfg,
                                     std::span<const FaultEvent> schedule,
                                     const EventSimResult& result,
                                     const SimTraceRecorder& trace,
                                     bool complete_rerouter = true);

}  // namespace scg
