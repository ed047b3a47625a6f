#include "sim/event_core.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "core/generator.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"

namespace scg {

// ---------------------------------------------------------------------------
// OffchipTable (declared in sim/packet.hpp)
// ---------------------------------------------------------------------------

OffchipTable::OffchipTable(const Graph& g,
                           const std::function<bool(std::int32_t)>& is_offchip) {
  by_arc_.resize(g.num_links());
  std::unordered_map<std::int32_t, bool> memo;  // predicate called once/tag
  for (std::uint64_t arc = 0; arc < g.num_links(); ++arc) {
    const std::int32_t tag = g.arc_tag(arc);
    auto it = memo.find(tag);
    if (it == memo.end()) it = memo.emplace(tag, is_offchip(tag)).first;
    by_arc_[arc] = it->second ? 1 : 0;
  }
}

OffchipTable OffchipTable::uniform(const Graph& g, bool offchip) {
  OffchipTable t;
  t.by_arc_.assign(g.num_links(), offchip ? 1 : 0);
  return t;
}

OffchipTable mcmp_offchip_table(const NetworkSpec& net, const Graph& g) {
  return OffchipTable(g, [&](std::int32_t tag) {
    return !is_nucleus(net.generators[static_cast<std::size_t>(tag)].kind);
  });
}

namespace {

using Clock = std::chrono::steady_clock;

/// Fault mode's retransmit backoff: the first retry waits kBackoffBase
/// cycles past the timeout, each further one twice as long, up to
/// kBackoffCap.
constexpr std::uint64_t kBackoffBase = 2;
constexpr std::uint64_t kBackoffCap = 1024;

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// Per-packet mutable routing state (the input packets stay immutable).
/// Fault mode's repaired routes live in a side table, which keeps this at
/// 32 bytes: one per packet is the event loop's largest allocation.
struct PacketState {
  const std::uint32_t* path = nullptr;  ///< current route (null until routed)
  std::uint32_t len = 0;                ///< nodes in the current route
  std::uint32_t pristine_hops = 1;      ///< original route hops (stretch denom)
  std::uint32_t hop = 0;                ///< index into path: node packet is at
  int retransmits = 0;
  std::uint64_t hops_walked = 0;
};

/// Chunked injection-order lazy routing through a RoutePolicy.  Arenas are
/// heap-allocated per chunk so previously handed-out path pointers stay
/// valid as new chunks arrive.
struct LazyRouter {
  RoutePolicy* policy = nullptr;
  std::span<const TrafficPair> pairs;
  std::size_t chunk = 4096;
  /// Packet indices in the order the event queue injects them, so chunks
  /// route exactly the packets it will need next.
  std::span<const std::uint32_t> order;
  std::size_t next = 0;              ///< first unrouted position in `order`
  std::vector<std::unique_ptr<PathArena>> arenas;
  std::vector<std::uint64_t> srcs;   ///< reused chunk buffers
  std::vector<std::uint64_t> dsts;

  void init(std::span<const TrafficPair> p, std::span<const std::uint32_t> o,
            RoutePolicy& pol, std::size_t chunk_size) {
    policy = &pol;
    pairs = p;
    order = o;
    chunk = std::max<std::size_t>(1, chunk_size);
  }

  /// Routes chunks (in injection order) until `packet` has a path.
  void route_until(std::uint32_t packet, std::vector<PacketState>& st,
                   SimTelemetry& tel) {
    while (st[packet].path == nullptr) {
      if (next >= order.size()) {
        throw std::logic_error("event core: unrouted packet past schedule");
      }
      const std::size_t lo = next;
      const std::size_t hi = std::min(lo + chunk, order.size());
      srcs.clear();
      dsts.clear();
      for (std::size_t i = lo; i < hi; ++i) {
        const TrafficPair& pr = pairs[order[i]];
        srcs.push_back(pr.src);
        dsts.push_back(pr.dst);
      }
      arenas.push_back(std::make_unique<PathArena>());
      PathArena& arena = *arenas.back();
      policy->route_paths(srcs, dsts, arena);
      for (std::size_t i = lo; i < hi; ++i) {
        const std::span<const std::uint32_t> path = arena[i - lo];
        const TrafficPair& pr = pairs[order[i]];
        if (path.empty() || path.front() != pr.src || path.back() != pr.dst) {
          throw std::invalid_argument("packet path must run src..dst");
        }
        PacketState& ps = st[order[i]];
        ps.path = path.data();
        ps.len = static_cast<std::uint32_t>(path.size());
        ps.pristine_hops =
            ps.len > 1 ? ps.len - 1 : 1;
      }
      next = hi;
      ++tel.route_chunks;
    }
  }
};

EventSimResult run_core(const Graph& g, const OffchipTable& offchip,
                        std::span<const SimPacket> packets,
                        std::span<const TrafficPair> pairs,
                        RoutePolicy* policy, const EventSimConfig& cfg,
                        std::span<const FaultEvent> schedule,
                        const Rerouter* reroute, SimObserver* obs) {
  // Each is cast to uint64_t below, so a negative value would wrap event
  // times instead of failing.
  if (cfg.flits_per_packet < 1) throw std::invalid_argument("flits >= 1");
  if (cfg.onchip_cycles_per_flit < 1 || cfg.offchip_cycles_per_flit < 1) {
    throw std::invalid_argument("event core: cycles per flit must be >= 1");
  }
  if (cfg.timeout_cycles < 0) {
    throw std::invalid_argument("event core: timeout_cycles must be >= 0");
  }
  if (!cfg.fault_mode &&
      (!schedule.empty() || reroute != nullptr || obs != nullptr)) {
    throw std::invalid_argument(
        "event core: a fault schedule, rerouter or observer needs fault_mode");
  }
  const bool lazy = policy != nullptr;
  const bool faulty = cfg.fault_mode;
  const std::size_t n = lazy ? pairs.size() : packets.size();
  if (n > UINT32_MAX) throw std::invalid_argument("too many packets");

  EventSimResult res;
  res.packets = n;
  SimTelemetry& tel = res.telemetry;
  const Clock::time_point t_run = Clock::now();
  const RouteCacheStats cache0 = lazy ? policy->cache_stats() : RouteCacheStats{};

  const std::uint64_t flits = static_cast<std::uint64_t>(cfg.flits_per_packet);
  const auto inject_of = [&](std::uint32_t p) {
    return lazy ? pairs[p].inject_time : packets[p].inject_time;
  };
  const auto dst_of = [&](std::uint32_t p) {
    return lazy ? pairs[p].dst : packets[p].dst;
  };

  // Fault schedule, stably sorted by time so same-cycle events resolve in
  // script order.  With repair events the accumulated FaultSet is no longer
  // monotone; fail-slow events inflate per-arc cycle multipliers instead of
  // touching the FaultSet at all.
  std::vector<FaultEvent> chaos(schedule.begin(), schedule.end());
  std::stable_sort(chaos.begin(), chaos.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time < b.time;
                   });
  const bool have_slow =
      std::any_of(chaos.begin(), chaos.end(), [](const FaultEvent& f) {
        return f.kind == FaultEventKind::kLinkSlow;
      });
  std::vector<std::uint32_t> slow;  // per-arc cycle multiplier (fail-slow)
  if (have_slow) slow.assign(g.num_links(), 1);
  const auto set_slow = [&](std::uint64_t u, std::uint64_t v,
                            std::uint32_t mult) {
    // Both directions of the physical channel degrade together; a missing
    // reverse arc (one-way link) is harmless to skip.
    for (const std::uint64_t arc : {g.find_arc(u, v), g.find_arc(v, u)}) {
      if (arc != g.num_links()) slow[arc] = std::max<std::uint32_t>(1, mult);
    }
  };
  FaultSet faults;
  std::size_t next_fault = 0;
  const auto apply_faults_until = [&](std::uint64_t now) {
    while (next_fault < chaos.size() && chaos[next_fault].time <= now) {
      const FaultEvent& f = chaos[next_fault++];
      switch (f.kind) {
        case FaultEventKind::kLinkFail:
          // The physical channel dies: both directions (failing a
          // nonexistent reverse arc of a one-way link is harmless —
          // blocks() only ever sees real hops).
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
          set_slow(f.u, f.v, f.slow_multiplier);
          break;
      }
    }
  };

  std::vector<std::uint64_t> link_free(g.num_links(), 0);
  std::vector<std::uint64_t> link_busy(g.num_links(), 0);
  std::vector<PacketState> st(n);
  std::vector<std::vector<std::uint32_t>> repaired_paths(faulty ? n : 0);
  if (!lazy) {
    for (std::uint32_t p = 0; p < n; ++p) {
      const SimPacket& pk = packets[p];
      if (pk.path.empty() || pk.path.front() != pk.src ||
          pk.path.back() != pk.dst) {
        throw std::invalid_argument("packet path must run src..dst");
      }
      PacketState& ps = st[p];
      ps.path = pk.path.data();
      ps.len = static_cast<std::uint32_t>(pk.path.size());
      ps.pristine_hops = ps.len > 1 ? ps.len - 1 : 1;
    }
  }

  // Packets by injection time, stably, so equal times keep packet-index
  // order: the event queue's injection cursor, shared with the lazy router.
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return inject_of(a) < inject_of(b);
                   });
  LazyRouter lz;
  if (lazy) lz.init(pairs, order, *policy, cfg.route_chunk);
  EventQueue queue(std::span<const std::uint32_t>(order), inject_of);
  // A pop schedules at most one event, for the same packet, so the queue
  // never grows past its start: every packet waiting to be injected.
  tel.queue_peak = queue.size();

  const auto cycles_of = [&](std::uint64_t arc) -> std::uint64_t {
    const std::uint64_t base =
        static_cast<std::uint64_t>(offchip.offchip(arc)
                                       ? cfg.offchip_cycles_per_flit
                                       : cfg.onchip_cycles_per_flit);
    return have_slow ? base * slow[arc] : base;
  };

  // Fault-mode accounting keeps the full latency/stretch samples (sorted
  // for percentiles later); the plain path accumulates only the sum.
  std::uint64_t latency_sum = 0;
  std::vector<std::uint64_t> latencies;
  std::vector<double> stretches;
  if (faulty) {
    latencies.reserve(n);
    stretches.reserve(n);
  }

  QueuedEvent ev;
  while (queue.pop(ev)) {
    ++tel.events_processed;
    PacketState& ps = st[ev.packet];
    if (faulty) {
      if (ev.time > cfg.max_cycles) {  // deadlock/livelock watchdog
        // Trip, don't silently stop: the packet is dropped, the result is
        // flagged truncated, and the partial counts stay conservation-clean
        // (asserted below) — every in-flight chain drains through here.
        res.truncated = true;
        ++res.dropped;
        if (obs != nullptr) {
          obs->on_dropped(ev.time, ev.packet, DropReason::kWatchdog);
        }
        continue;
      }
      apply_faults_until(ev.time);
    }
    if (lazy && ps.path == nullptr) {
      const Clock::time_point t0 = Clock::now();
      lz.route_until(ev.packet, st, tel);
      tel.routing_ns += ns_since(t0);
    }
    if (ps.hop + 1 >= ps.len) {  // arrived (tail, for multi-flit packets)
      res.completion_cycles = std::max(res.completion_cycles, ev.time);
      if (faulty) {
        ++res.delivered;
        latencies.push_back(ev.time - inject_of(ev.packet));
        stretches.push_back(static_cast<double>(ps.hops_walked) /
                            static_cast<double>(ps.pristine_hops));
        if (obs != nullptr) obs->on_delivered(ev.time, ev.packet);
      } else {
        latency_sum += ev.time - inject_of(ev.packet);
      }
      continue;
    }
    const std::uint64_t u = ps.path[ps.hop];
    const std::uint64_t v = ps.path[ps.hop + 1];
    if (faulty && faults.blocks(u, v)) {
      // Dead hop: detect after the timeout, re-route from here, retransmit
      // after exponential backoff.  A repaired route can be invalidated by
      // kills landing after it was computed — each such collision costs one
      // more retransmit attempt from the budget.
      ++res.timeouts;
      ++ps.retransmits;
      if (obs != nullptr) obs->on_timeout(ev.time, ev.packet, u, v);
      if (ps.retransmits > cfg.max_retransmits) {
        ++res.dropped;
        if (obs != nullptr) {
          obs->on_dropped(ev.time, ev.packet, DropReason::kRetransmitBudget);
        }
        continue;
      }
      std::vector<std::uint32_t> repaired =
          reroute != nullptr ? (*reroute)(u, dst_of(ev.packet), faults)
                             : std::vector<std::uint32_t>{};
      if (repaired.empty()) {
        ++res.dropped;  // destination unreachable from here
        if (obs != nullptr) {
          obs->on_dropped(ev.time, ev.packet, DropReason::kUnreachable);
        }
        continue;
      }
      ++res.retransmissions;
      repaired_paths[ev.packet] = std::move(repaired);
      ps.path = repaired_paths[ev.packet].data();
      ps.len = static_cast<std::uint32_t>(repaired_paths[ev.packet].size());
      ps.hop = 0;
      const std::uint64_t backoff =
          std::min(kBackoffCap, kBackoffBase << (ps.retransmits - 1));
      queue.push(ev.time + static_cast<std::uint64_t>(cfg.timeout_cycles) +
                     backoff,
                 ev.packet);
      continue;
    }
    const std::uint64_t arc = g.find_arc(u, v);
    if (arc == g.num_links()) {
      throw std::invalid_argument("packet path uses a non-existent link");
    }
    const std::uint64_t c = cycles_of(arc);
    const std::uint64_t occ = flits * c;
    const std::uint64_t start = std::max(ev.time, link_free[arc]);
    link_free[arc] = start + occ;
    link_busy[arc] += occ;
    ++res.total_hops;
    res.flit_hops += flits;
    if (offchip.offchip(arc)) ++res.offchip_hops;
    if (faulty) {
      ++ps.hops_walked;
      if (obs != nullptr) obs->on_hop(ev.time, ev.packet, u, v, occ);
    }

    std::uint64_t next_time;
    if (flits == 1 || ps.hop + 2 >= ps.len) {
      // Store-and-forward, or the final hop: done when the tail arrives.
      next_time = start + occ;
    } else {
      // Cut-through: the head may proceed after one flit time, but a faster
      // downstream link must wait until it can stream without starving
      // (flit i must be fully received before its downstream slot begins):
      //   s_d >= s_u + max(c, F*c - (F-1)*c_d).
      const std::uint64_t next_arc =
          g.find_arc(ps.path[ps.hop + 1], ps.path[ps.hop + 2]);
      if (next_arc == g.num_links()) {
        throw std::invalid_argument("packet path uses a non-existent link");
      }
      const std::uint64_t cd = cycles_of(next_arc);
      const std::uint64_t stream_gap =
          occ > (flits - 1) * cd ? occ - (flits - 1) * cd : 0;
      next_time = start + std::max(c, stream_gap);
    }
    ++ps.hop;
    queue.push(next_time, ev.packet);
  }

  if (faulty) {
    // Conservation must hold even on a truncated (watchdog-tripped) partial
    // state: every injected packet's event chain ends in exactly one
    // delivered or dropped increment.
    if (res.delivered + res.dropped != res.packets) {
      throw std::logic_error("event core: packet conservation violated");
    }
    res.delivered_fraction =
        res.packets > 0
            ? static_cast<double>(res.delivered) / static_cast<double>(res.packets)
            : 1.0;
    if (!latencies.empty()) {
      std::sort(latencies.begin(), latencies.end());
      std::uint64_t sum = 0;
      for (const std::uint64_t l : latencies) sum += l;
      res.avg_latency =
          static_cast<double>(sum) / static_cast<double>(latencies.size());
      const std::span<const std::uint64_t> sorted(latencies);
      res.p50_latency = sorted_percentile(sorted, 50);
      res.p99_latency = sorted_percentile(sorted, 99);
      double ssum = 0;
      for (const double s : stretches) {
        ssum += s;
        res.max_stretch = std::max(res.max_stretch, s);
      }
      res.avg_stretch = ssum / static_cast<double>(stretches.size());
    }
  } else {
    res.delivered = res.packets;
    if (res.packets > 0) {
      res.avg_latency =
          static_cast<double>(latency_sum) / static_cast<double>(res.packets);
    }
  }
  for (const std::uint64_t b : link_busy) {
    res.max_link_busy = std::max(res.max_link_busy, static_cast<double>(b));
  }

  if (lazy) {
    const RouteCacheStats cache1 = policy->cache_stats();
    tel.cache_hits = cache1.hits - cache0.hits;
    tel.cache_misses = cache1.misses - cache0.misses;
  }
  const std::uint64_t total_ns = ns_since(t_run);
  tel.transit_ns = total_ns > tel.routing_ns ? total_ns - tel.routing_ns : 0;
  tel.truncated = res.truncated;
  return res;
}

}  // namespace

EventSimResult simulate_events(const Graph& g, const OffchipTable& offchip,
                               std::span<const SimPacket> packets,
                               const EventSimConfig& cfg,
                               std::span<const FaultEvent> schedule,
                               const Rerouter* reroute, SimObserver* observer) {
  return run_core(g, offchip, packets, {}, nullptr, cfg, schedule, reroute,
                  observer);
}

EventSimResult simulate_events(const Graph& g, const OffchipTable& offchip,
                               std::span<const TrafficPair> pairs,
                               RoutePolicy& policy, const EventSimConfig& cfg,
                               std::span<const FaultEvent> schedule,
                               const Rerouter* reroute, SimObserver* observer) {
  return run_core(g, offchip, {}, pairs, &policy, cfg, schedule, reroute,
                  observer);
}

Rerouter make_rerouter(const FaultRouter& router) {
  return [&router](std::uint64_t at, std::uint64_t dst,
                   const FaultSet& faults) -> std::vector<std::uint32_t> {
    const RouteOutcome outcome = router.route(at, dst, faults);
    if (!outcome.delivered()) return {};
    return narrow_path(outcome.path);
  };
}

}  // namespace scg
