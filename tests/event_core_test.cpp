// Unified event core: golden equality against verbatim copies of the seed
// simulators (the three standalone event loops the core replaced), lazy
// injection-time routing == pre-routed-path equivalence, the fault-mode
// precondition, config validation, the tie rule, the calendar event queue
// against a heap, the RoutePolicy registry, and telemetry invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <queue>
#include <random>

#include "analysis/oracle_audit.hpp"
#include "chaos/invariants.hpp"
#include "networks/oracle_policy.hpp"
#include "networks/route_policy.hpp"
#include "sim/event_core.hpp"
#include "sim/event_queue.hpp"
#include "sim/workloads.hpp"
#include "topology/baselines.hpp"
#include "topology/metrics.hpp"

namespace scg {
namespace {

// ---------------------------------------------------------------------------
// Reference implementations: the seed event loops, copied verbatim (modulo
// names and the config/result/schedule types), except that each heap breaks
// equal times by a push counter: the core's declared tie rule (insertion
// order) on the seed's data structure.  simulate_events must reproduce these
// bit-for-bit — including the double accumulation orders — on any valid
// workload.
// ---------------------------------------------------------------------------

EventSimResult ref_simulate_mcmp(
    const Graph& g, const std::function<bool(std::int32_t)>& is_offchip,
    std::vector<SimPacket> packets, const EventSimConfig& cfg) {
  struct Event {
    std::uint64_t time;
    std::uint64_t seq;
    std::uint32_t packet;
    std::uint32_t hop;
    bool operator>(const Event& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  EventSimResult res;
  res.packets = packets.size();
  std::vector<std::uint64_t> link_free(g.num_links(), 0);
  std::vector<std::uint64_t> link_busy(g.num_links(), 0);
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> pq;
  std::uint64_t seq = 0;
  for (std::uint32_t p = 0; p < packets.size(); ++p) {
    pq.push(Event{packets[p].inject_time, seq++, p, 0});
  }
  std::uint64_t latency_sum = 0;
  while (!pq.empty()) {
    const Event ev = pq.top();
    pq.pop();
    const SimPacket& pk = packets[ev.packet];
    if (ev.hop + 1 >= pk.path.size()) {
      res.completion_cycles = std::max(res.completion_cycles, ev.time);
      latency_sum += ev.time - pk.inject_time;
      continue;
    }
    const std::uint64_t arc = g.find_arc(pk.path[ev.hop], pk.path[ev.hop + 1]);
    const bool off = is_offchip(g.arc_tag(arc));
    const std::uint64_t occ = static_cast<std::uint64_t>(
        off ? cfg.offchip_cycles_per_flit : cfg.onchip_cycles_per_flit);
    const std::uint64_t start = std::max(ev.time, link_free[arc]);
    link_free[arc] = start + occ;
    link_busy[arc] += occ;
    ++res.total_hops;
    if (off) ++res.offchip_hops;
    pq.push(Event{start + occ, seq++, ev.packet, ev.hop + 1});
  }
  if (res.packets > 0) {
    res.avg_latency =
        static_cast<double>(latency_sum) / static_cast<double>(res.packets);
  }
  for (const std::uint64_t b : link_busy) {
    res.max_link_busy = std::max(res.max_link_busy, static_cast<double>(b));
  }
  return res;
}

/// `schedule` holds kLinkFail events only, the seed loop's fault model.
EventSimResult ref_simulate_mcmp_faulty(
    const Graph& g, const std::function<bool(std::int32_t)>& is_offchip,
    std::vector<SimPacket> packets, std::vector<FaultEvent> schedule,
    const Rerouter& reroute, const EventSimConfig& cfg) {
  struct Event {
    std::uint64_t time;
    std::uint64_t seq;
    std::uint32_t packet;
    bool operator>(const Event& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };
  struct PacketState {
    std::vector<std::uint32_t> path;
    std::uint32_t hop = 0;
    int retransmits = 0;
    std::uint64_t hops_walked = 0;
  };

  EventSimResult res;
  res.packets = packets.size();
  std::sort(schedule.begin(), schedule.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              return a.time < b.time;
            });
  FaultSet faults;
  std::size_t next_fault = 0;
  const auto apply_faults_until = [&](std::uint64_t now) {
    while (next_fault < schedule.size() && schedule[next_fault].time <= now) {
      const FaultEvent& f = schedule[next_fault++];
      faults.fail_link(f.u, f.v);
    }
  };

  std::vector<std::uint64_t> link_free(g.num_links(), 0);
  std::vector<std::uint64_t> link_busy(g.num_links(), 0);
  std::vector<PacketState> state(packets.size());
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> pq;
  std::uint64_t seq = 0;
  for (std::uint32_t p = 0; p < packets.size(); ++p) {
    state[p].path = packets[p].path;
    pq.push(Event{packets[p].inject_time, seq++, p});
  }

  std::vector<std::uint64_t> latencies;
  std::vector<double> stretches;
  while (!pq.empty()) {
    const Event ev = pq.top();
    pq.pop();
    const SimPacket& pk = packets[ev.packet];
    PacketState& ps = state[ev.packet];
    if (ev.time > cfg.max_cycles) {
      ++res.dropped;
      continue;
    }
    apply_faults_until(ev.time);
    if (ps.hop + 1 >= ps.path.size()) {
      ++res.delivered;
      res.completion_cycles = std::max(res.completion_cycles, ev.time);
      latencies.push_back(ev.time - pk.inject_time);
      const std::uint64_t pristine = pk.path.size() > 1 ? pk.path.size() - 1 : 1;
      stretches.push_back(static_cast<double>(ps.hops_walked) /
                          static_cast<double>(pristine));
      continue;
    }
    const std::uint64_t u = ps.path[ps.hop];
    const std::uint64_t v = ps.path[ps.hop + 1];
    if (faults.blocks(u, v)) {
      ++res.timeouts;
      ++ps.retransmits;
      if (ps.retransmits > cfg.max_retransmits) {
        ++res.dropped;
        continue;
      }
      std::vector<std::uint32_t> repaired = reroute(u, pk.dst, faults);
      if (repaired.empty()) {
        ++res.dropped;
        continue;
      }
      ++res.retransmissions;
      ps.path = std::move(repaired);
      ps.hop = 0;
      const std::uint64_t backoff = std::min<std::uint64_t>(
          1024, std::uint64_t{2} << (ps.retransmits - 1));
      pq.push(Event{
          ev.time + static_cast<std::uint64_t>(cfg.timeout_cycles) + backoff,
          seq++, ev.packet});
      continue;
    }
    const std::uint64_t arc = g.find_arc(u, v);
    const bool off = is_offchip(g.arc_tag(arc));
    const std::uint64_t occ = static_cast<std::uint64_t>(
        off ? cfg.offchip_cycles_per_flit : cfg.onchip_cycles_per_flit);
    const std::uint64_t start = std::max(ev.time, link_free[arc]);
    link_free[arc] = start + occ;
    link_busy[arc] += occ;
    ++res.total_hops;
    ++ps.hops_walked;
    if (off) ++res.offchip_hops;
    ++ps.hop;
    pq.push(Event{start + occ, seq++, ev.packet});
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
    res.p50_latency = latencies[latencies.size() / 2];
    res.p99_latency =
        latencies[std::min(latencies.size() - 1, (latencies.size() * 99) / 100)];
    double ssum = 0;
    for (const double s : stretches) {
      ssum += s;
      res.max_stretch = std::max(res.max_stretch, s);
    }
    res.avg_stretch = ssum / static_cast<double>(stretches.size());
  }
  for (const std::uint64_t b : link_busy) {
    res.max_link_busy = std::max(res.max_link_busy, static_cast<double>(b));
  }
  return res;
}

EventSimResult ref_simulate_cut_through(
    const Graph& g, const std::function<bool(std::int32_t)>& is_offchip,
    std::vector<SimPacket> packets, const EventSimConfig& cfg) {
  struct Event {
    std::uint64_t ready;
    std::uint64_t seq;
    std::uint32_t packet;
    std::uint32_t hop;
    bool operator>(const Event& o) const {
      return ready != o.ready ? ready > o.ready : seq > o.seq;
    }
  };

  EventSimResult res;
  res.packets = packets.size();
  const std::uint64_t flits = static_cast<std::uint64_t>(cfg.flits_per_packet);
  std::vector<std::uint64_t> link_free(g.num_links(), 0);
  std::vector<std::uint64_t> link_busy(g.num_links(), 0);
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> pq;
  std::uint64_t seq = 0;
  for (std::uint32_t p = 0; p < packets.size(); ++p) {
    pq.push(Event{packets[p].inject_time, seq++, p, 0});
  }
  auto cycles_of = [&](std::uint64_t arc) -> std::uint64_t {
    return static_cast<std::uint64_t>(is_offchip(g.arc_tag(arc))
                                          ? cfg.offchip_cycles_per_flit
                                          : cfg.onchip_cycles_per_flit);
  };
  std::uint64_t latency_sum = 0;
  while (!pq.empty()) {
    const Event ev = pq.top();
    pq.pop();
    const SimPacket& pk = packets[ev.packet];
    if (ev.hop + 1 >= pk.path.size()) {
      res.completion_cycles = std::max(res.completion_cycles, ev.ready);
      latency_sum += ev.ready - pk.inject_time;
      continue;
    }
    const std::uint64_t arc = g.find_arc(pk.path[ev.hop], pk.path[ev.hop + 1]);
    const std::uint64_t c = cycles_of(arc);
    const std::uint64_t start = std::max(ev.ready, link_free[arc]);
    link_free[arc] = start + flits * c;
    link_busy[arc] += flits * c;
    res.flit_hops += flits;
    std::uint64_t next_ready;
    if (ev.hop + 2 >= pk.path.size()) {
      next_ready = start + flits * c;
    } else {
      const std::uint64_t next_arc =
          g.find_arc(pk.path[ev.hop + 1], pk.path[ev.hop + 2]);
      const std::uint64_t cd = cycles_of(next_arc);
      const std::uint64_t stream_gap =
          flits * c > (flits - 1) * cd ? flits * c - (flits - 1) * cd : 0;
      next_ready = start + std::max(c, stream_gap);
    }
    pq.push(Event{next_ready, seq++, ev.packet, ev.hop + 1});
  }
  if (res.packets > 0) {
    res.avg_latency =
        static_cast<double>(latency_sum) / static_cast<double>(res.packets);
  }
  for (const std::uint64_t b : link_busy) {
    res.max_link_busy = std::max(res.max_link_busy, static_cast<double>(b));
  }
  return res;
}

// ---------------------------------------------------------------------------
// Workload helpers
// ---------------------------------------------------------------------------

std::function<bool(std::int32_t)> offchip_of(const NetworkSpec& net) {
  return [&net](std::int32_t tag) {
    return !is_nucleus(net.generators[static_cast<std::size_t>(tag)].kind);
  };
}

/// Random traffic with staggered injection (the generators emit inject 0).
std::vector<SimPacket> staggered(std::vector<SimPacket> pkts) {
  for (std::size_t i = 0; i < pkts.size(); ++i) pkts[i].inject_time = i % 16;
  return pkts;
}

/// A link-kill schedule drawn from hops the workload actually uses, so the
/// fault machinery (timeout / re-route / backoff) genuinely fires.
std::vector<FaultEvent> kills_from(const std::vector<SimPacket>& pkts) {
  std::vector<FaultEvent> schedule;
  for (std::size_t i = 0; i < pkts.size() && schedule.size() < 6; i += 37) {
    const auto& path = pkts[i].path;
    if (path.size() < 3) continue;
    const std::size_t mid = path.size() / 2;
    schedule.push_back(FaultEvent::link_fail(3 + 11 * schedule.size(),
                                             path[mid], path[mid + 1]));
  }
  return schedule;
}

struct Family {
  const char* label;
  NetworkSpec net;
};

std::vector<Family> golden_families() {
  std::vector<Family> fams;
  fams.push_back({"MS(2,2)", make_macro_star(2, 2)});
  fams.push_back({"cRS(2,2)", make_complete_rotation_star(2, 2)});
  fams.push_back({"MR(2,2)", make_macro_rotator(2, 2)});
  fams.push_back({"star(5)", make_star_graph(5)});
  fams.push_back({"MIS(2,2)", make_macro_is(2, 2)});
  return fams;
}

// ---------------------------------------------------------------------------
// Golden equality: simulate_events vs the seed loops
// ---------------------------------------------------------------------------

TEST(GoldenEquality, StoreAndForwardMatchesSeedAcrossFamilies) {
  for (const Family& f : golden_families()) {
    const Graph g = materialize(f.net);
    const auto pkts = staggered(random_traffic_packets(f.net, 4, 7));
    EventSimConfig cfg;
    cfg.offchip_cycles_per_flit = std::max(1, f.net.intercluster_degree());
    const EventSimResult want =
        ref_simulate_mcmp(g, offchip_of(f.net), pkts, cfg);
    const EventSimResult got =
        simulate_events(g, mcmp_offchip_table(f.net, g), pkts, cfg);
    EXPECT_EQ(got.completion_cycles, want.completion_cycles) << f.label;
    EXPECT_EQ(got.avg_latency, want.avg_latency) << f.label;
    EXPECT_EQ(got.packets, want.packets) << f.label;
    EXPECT_EQ(got.total_hops, want.total_hops) << f.label;
    EXPECT_EQ(got.offchip_hops, want.offchip_hops) << f.label;
    EXPECT_EQ(got.max_link_busy, want.max_link_busy) << f.label;
  }
}

TEST(GoldenEquality, StoreAndForwardMatchesSeedOnExplicitGraphs) {
  const Graph graphs[] = {make_hypercube(4), make_torus_2d(4, 5), make_ring(12)};
  const auto all = [](std::int32_t) { return true; };
  for (const Graph& g : graphs) {
    const auto pkts = staggered(random_traffic_packets(g, 5, 23));
    EventSimConfig cfg;
    cfg.offchip_cycles_per_flit = 3;
    const EventSimResult want = ref_simulate_mcmp(g, all, pkts, cfg);
    const EventSimResult got =
        simulate_events(g, OffchipTable::uniform(g, true), pkts, cfg);
    EXPECT_EQ(got.completion_cycles, want.completion_cycles);
    EXPECT_EQ(got.avg_latency, want.avg_latency);
    EXPECT_EQ(got.total_hops, want.total_hops);
    EXPECT_EQ(got.max_link_busy, want.max_link_busy);
  }
}

// At one flit per packet the seed cut-through loop models the same FIFO
// links as the seed store-and-forward loop: the two seed loops must agree
// with each other, and the core (which replaced both) with each of them.
class OneFlitEquivalence : public testing::TestWithParam<int> {};

TEST_P(OneFlitEquivalence, CutThroughEqualsStoreAndForward) {
  const int occupancy = GetParam();
  const Graph graphs[] = {make_ring(10), make_hypercube(4), make_torus_2d(4, 5),
                          make_mesh_2d(3, 6)};
  const auto all = [](std::int32_t) { return true; };
  for (const Graph& g : graphs) {
    const auto pkts = staggered(random_traffic_packets(
        g, 4, 17 + static_cast<std::uint64_t>(occupancy)));
    EventSimConfig cfg;
    cfg.onchip_cycles_per_flit = occupancy;
    cfg.offchip_cycles_per_flit = occupancy;
    const EventSimResult saf = ref_simulate_mcmp(g, all, pkts, cfg);
    const EventSimResult ct = ref_simulate_cut_through(g, all, pkts, cfg);
    EXPECT_EQ(ct.completion_cycles, saf.completion_cycles);
    EXPECT_EQ(ct.avg_latency, saf.avg_latency);
    EXPECT_EQ(ct.flit_hops, saf.total_hops);
    EXPECT_EQ(ct.max_link_busy, saf.max_link_busy);
    const EventSimResult got =
        simulate_events(g, OffchipTable::uniform(g, true), pkts, cfg);
    EXPECT_EQ(got.completion_cycles, saf.completion_cycles);
    EXPECT_EQ(got.avg_latency, saf.avg_latency);
    EXPECT_EQ(got.total_hops, saf.total_hops);
    EXPECT_EQ(got.flit_hops, ct.flit_hops);
    EXPECT_EQ(got.max_link_busy, saf.max_link_busy);
  }
}

INSTANTIATE_TEST_SUITE_P(Occupancies, OneFlitEquivalence,
                         testing::Values(1, 2, 5));

TEST(GoldenEquality, FaultyMatchesSeedAcrossFamilies) {
  std::uint64_t exercised = 0;
  for (const Family& f : golden_families()) {
    const Graph g = materialize(f.net);
    const auto pkts = staggered(random_traffic_packets(f.net, 4, 11));
    const std::vector<FaultEvent> schedule = kills_from(pkts);
    const FaultRouter router(f.net);
    const Rerouter reroute = make_rerouter(router);
    EventSimConfig cfg;
    cfg.fault_mode = true;
    cfg.offchip_cycles_per_flit = std::max(1, f.net.intercluster_degree());
    const EventSimResult want = ref_simulate_mcmp_faulty(
        g, offchip_of(f.net), pkts, schedule, reroute, cfg);
    const EventSimResult got = simulate_events(
        g, mcmp_offchip_table(f.net, g), pkts, cfg, schedule, &reroute);
    EXPECT_EQ(got.packets, want.packets) << f.label;
    EXPECT_EQ(got.delivered, want.delivered) << f.label;
    EXPECT_EQ(got.dropped, want.dropped) << f.label;
    EXPECT_EQ(got.delivered_fraction, want.delivered_fraction) << f.label;
    EXPECT_EQ(got.timeouts, want.timeouts) << f.label;
    EXPECT_EQ(got.retransmissions, want.retransmissions) << f.label;
    EXPECT_EQ(got.completion_cycles, want.completion_cycles) << f.label;
    EXPECT_EQ(got.avg_latency, want.avg_latency) << f.label;
    EXPECT_EQ(got.p50_latency, want.p50_latency) << f.label;
    EXPECT_EQ(got.p99_latency, want.p99_latency) << f.label;
    EXPECT_EQ(got.avg_stretch, want.avg_stretch) << f.label;
    EXPECT_EQ(got.max_stretch, want.max_stretch) << f.label;
    EXPECT_EQ(got.total_hops, want.total_hops) << f.label;
    EXPECT_EQ(got.offchip_hops, want.offchip_hops) << f.label;
    EXPECT_EQ(got.max_link_busy, want.max_link_busy) << f.label;
    exercised += want.timeouts;
  }
  // The schedules are drawn from used hops, so the timeout/re-route path
  // must actually have fired somewhere (everything above is deterministic).
  EXPECT_GT(exercised, 0u);
}

TEST(GoldenEquality, CutThroughMatchesSeedAcrossFamilies) {
  for (const Family& f : golden_families()) {
    const Graph g = materialize(f.net);
    const auto pkts = staggered(random_traffic_packets(f.net, 3, 31));
    for (const int flits : {1, 4}) {
      EventSimConfig cfg;
      cfg.flits_per_packet = flits;
      cfg.offchip_cycles_per_flit = std::max(1, f.net.intercluster_degree());
      const EventSimResult want =
          ref_simulate_cut_through(g, offchip_of(f.net), pkts, cfg);
      const EventSimResult got =
          simulate_events(g, mcmp_offchip_table(f.net, g), pkts, cfg);
      EXPECT_EQ(got.completion_cycles, want.completion_cycles)
          << f.label << " flits=" << flits;
      EXPECT_EQ(got.avg_latency, want.avg_latency)
          << f.label << " flits=" << flits;
      EXPECT_EQ(got.flit_hops, want.flit_hops) << f.label << " flits=" << flits;
      EXPECT_EQ(got.max_link_busy, want.max_link_busy)
          << f.label << " flits=" << flits;
    }
  }
}

// Injection waves 1000 cycles apart, in reverse packet order, lie past the
// event queue's ring: the queue jumps over empty spans and its injection
// cursor runs out of packet order.  Off-chip hops of 300 cycles, also past
// the ring, send transit events through its overflow heap.
TEST(GoldenEquality, EventsBeyondTheQueueRingMatchSeed) {
  ASSERT_LT(kEventRingSlots, 300u);
  for (const Family& f : golden_families()) {
    const Graph g = materialize(f.net);
    auto pkts = random_traffic_packets(f.net, 4, 13);
    for (std::size_t i = 0; i < pkts.size(); ++i) {
      pkts[i].inject_time = 1000 * (7 - i % 8);
    }
    for (const int offchip : {std::max(1, f.net.intercluster_degree()), 300}) {
      EventSimConfig cfg;
      cfg.offchip_cycles_per_flit = offchip;
      const EventSimResult want =
          ref_simulate_mcmp(g, offchip_of(f.net), pkts, cfg);
      const EventSimResult got =
          simulate_events(g, mcmp_offchip_table(f.net, g), pkts, cfg);
      EXPECT_EQ(got.completion_cycles, want.completion_cycles)
          << f.label << " offchip=" << offchip;
      EXPECT_EQ(got.avg_latency, want.avg_latency)
          << f.label << " offchip=" << offchip;
      EXPECT_EQ(got.total_hops, want.total_hops) << f.label;
      EXPECT_EQ(got.max_link_busy, want.max_link_busy)
          << f.label << " offchip=" << offchip;

      cfg.flits_per_packet = 4;
      const EventSimResult want_ct =
          ref_simulate_cut_through(g, offchip_of(f.net), pkts, cfg);
      const EventSimResult got_ct =
          simulate_events(g, mcmp_offchip_table(f.net, g), pkts, cfg);
      EXPECT_EQ(got_ct.completion_cycles, want_ct.completion_cycles)
          << f.label << " offchip=" << offchip << " flits=4";
      EXPECT_EQ(got_ct.avg_latency, want_ct.avg_latency)
          << f.label << " offchip=" << offchip << " flits=4";
    }
  }
}

// ---------------------------------------------------------------------------
// Lazy injection-time routing == pre-routed paths
// ---------------------------------------------------------------------------

std::vector<TrafficPair> staggered_pairs(std::vector<TrafficPair> pairs) {
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    pairs[i].inject_time = i % 32;
  }
  return pairs;
}

TEST(LazyRouting, EqualsPreroutedStoreAndForward) {
  const NetworkSpec net = make_macro_star(2, 2);
  const Graph g = materialize(net);
  const OffchipTable offchip = mcmp_offchip_table(net, g);
  const auto pairs =
      staggered_pairs(random_traffic_pairs(net.num_nodes(), 6, 99));
  EventSimConfig cfg;
  cfg.offchip_cycles_per_flit = std::max(1, net.intercluster_degree());
  for (const std::size_t chunk : {std::size_t{64}, std::size_t{4096}}) {
    cfg.route_chunk = chunk;
    GamePolicy lazy_policy(net);
    const EventSimResult lazy =
        simulate_events(g, offchip, pairs, lazy_policy, cfg);
    GamePolicy pre_policy(net);
    const std::vector<SimPacket> pkts = packets_for(pre_policy, pairs);
    const EventSimResult pre = simulate_events(g, offchip, pkts, cfg);
    EXPECT_EQ(lazy.completion_cycles, pre.completion_cycles) << chunk;
    EXPECT_EQ(lazy.avg_latency, pre.avg_latency) << chunk;
    EXPECT_EQ(lazy.total_hops, pre.total_hops) << chunk;
    EXPECT_EQ(lazy.offchip_hops, pre.offchip_hops) << chunk;
    EXPECT_EQ(lazy.max_link_busy, pre.max_link_busy) << chunk;
    EXPECT_EQ(lazy.telemetry.events_processed, pre.telemetry.events_processed)
        << chunk;
    // Lazy telemetry: every pair routed in ceil(n / chunk) chunks, through
    // the engine cache.
    EXPECT_EQ(lazy.telemetry.route_chunks,
              (pairs.size() + chunk - 1) / chunk);
    EXPECT_GT(lazy.telemetry.cache_hits + lazy.telemetry.cache_misses, 0u);
  }
}

TEST(LazyRouting, EqualsPreroutedCutThrough) {
  const NetworkSpec net = make_complete_rotation_star(2, 2);
  const Graph g = materialize(net);
  const OffchipTable offchip = mcmp_offchip_table(net, g);
  const auto pairs =
      staggered_pairs(random_traffic_pairs(net.num_nodes(), 5, 5));
  EventSimConfig cfg;
  cfg.flits_per_packet = 4;
  cfg.offchip_cycles_per_flit = std::max(1, net.intercluster_degree());
  cfg.route_chunk = 100;
  GamePolicy lazy_policy(net);
  const EventSimResult lazy =
      simulate_events(g, offchip, pairs, lazy_policy, cfg);
  GamePolicy pre_policy(net);
  const EventSimResult pre =
      simulate_events(g, offchip, packets_for(pre_policy, pairs), cfg);
  EXPECT_EQ(lazy.completion_cycles, pre.completion_cycles);
  EXPECT_EQ(lazy.avg_latency, pre.avg_latency);
  EXPECT_EQ(lazy.flit_hops, pre.flit_hops);
  EXPECT_EQ(lazy.max_link_busy, pre.max_link_busy);
}

TEST(LazyRouting, EqualsPreroutedUnderFaults) {
  const NetworkSpec net = make_macro_star(2, 2);
  const Graph g = materialize(net);
  const OffchipTable offchip = mcmp_offchip_table(net, g);
  const auto pairs =
      staggered_pairs(random_traffic_pairs(net.num_nodes(), 4, 17));
  GamePolicy pre_policy(net);
  const std::vector<SimPacket> pkts = packets_for(pre_policy, pairs);
  const std::vector<FaultEvent> schedule = kills_from(pkts);
  const FaultRouter router(net);
  const Rerouter reroute = make_rerouter(router);
  EventSimConfig cfg;
  cfg.fault_mode = true;
  cfg.offchip_cycles_per_flit = std::max(1, net.intercluster_degree());
  cfg.route_chunk = 50;
  GamePolicy lazy_policy(net);
  const EventSimResult lazy =
      simulate_events(g, offchip, pairs, lazy_policy, cfg, schedule, &reroute);
  const EventSimResult pre =
      simulate_events(g, offchip, pkts, cfg, schedule, &reroute);
  EXPECT_EQ(lazy.delivered, pre.delivered);
  EXPECT_EQ(lazy.dropped, pre.dropped);
  EXPECT_EQ(lazy.timeouts, pre.timeouts);
  EXPECT_EQ(lazy.retransmissions, pre.retransmissions);
  EXPECT_EQ(lazy.completion_cycles, pre.completion_cycles);
  EXPECT_EQ(lazy.avg_latency, pre.avg_latency);
  EXPECT_EQ(lazy.avg_stretch, pre.avg_stretch);
  EXPECT_EQ(lazy.max_link_busy, pre.max_link_busy);
}

// ---------------------------------------------------------------------------
// Fault arguments need fault_mode
// ---------------------------------------------------------------------------

TEST(FaultModePrecondition, RejectsScheduleRerouterAndObserverWhenOff) {
  // Ignoring them instead would silently turn a faulty run into a
  // fault-free one.
  const NetworkSpec net = make_macro_star(2, 2);
  const Graph g = materialize(net);
  const OffchipTable offchip = mcmp_offchip_table(net, g);
  const auto pairs = random_traffic_pairs(net.num_nodes(), 2, 3);
  GamePolicy policy(net);
  const std::vector<SimPacket> pkts = packets_for(policy, pairs);
  const std::vector<FaultEvent> schedule = {
      FaultEvent::link_fail(0, pkts[0].path[0], pkts[0].path[1])};
  const FaultRouter router(net);
  const Rerouter reroute = make_rerouter(router);
  SimTraceRecorder observer;

  EventSimConfig cfg;
  ASSERT_FALSE(cfg.fault_mode);
  EXPECT_THROW(simulate_events(g, offchip, pkts, cfg, schedule),
               std::invalid_argument);
  EXPECT_THROW(simulate_events(g, offchip, pkts, cfg, {}, &reroute),
               std::invalid_argument);
  EXPECT_THROW(simulate_events(g, offchip, pkts, cfg, {}, nullptr, &observer),
               std::invalid_argument);
  EXPECT_THROW(simulate_events(g, offchip, pairs, policy, cfg, schedule),
               std::invalid_argument);
  EXPECT_THROW(simulate_events(g, offchip, pairs, policy, cfg, {}, &reroute),
               std::invalid_argument);
  EXPECT_THROW(
      simulate_events(g, offchip, pairs, policy, cfg, {}, nullptr, &observer),
      std::invalid_argument);

  // The same arguments run in fault mode, and the kill is honoured.
  cfg.fault_mode = true;
  const EventSimResult r =
      simulate_events(g, offchip, pkts, cfg, schedule, &reroute, &observer);
  EXPECT_GE(r.timeouts, 1u);
  EXPECT_EQ(r.delivered + r.dropped, r.packets);
}

// ---------------------------------------------------------------------------
// Config validation
// ---------------------------------------------------------------------------

TEST(ConfigValidation, RejectsNonPositiveCyclesAndNegativeTimeout) {
  // The core casts each of these to uint64_t, so a bad value would wrap
  // event times instead of failing.
  const NetworkSpec net = make_macro_star(2, 2);
  const Graph g = materialize(net);
  const OffchipTable offchip = mcmp_offchip_table(net, g);
  const auto pairs = random_traffic_pairs(net.num_nodes(), 1, 5);
  GamePolicy policy(net);
  const std::vector<SimPacket> pkts = packets_for(policy, pairs);
  const std::function<void(EventSimConfig&)> bad[] = {
      [](EventSimConfig& c) { c.onchip_cycles_per_flit = 0; },
      [](EventSimConfig& c) { c.onchip_cycles_per_flit = -3; },
      [](EventSimConfig& c) { c.offchip_cycles_per_flit = 0; },
      [](EventSimConfig& c) { c.offchip_cycles_per_flit = -1; },
      [](EventSimConfig& c) { c.timeout_cycles = -1; },
      [](EventSimConfig& c) {
        c.fault_mode = true;
        c.timeout_cycles = -1;
      },
  };
  for (std::size_t i = 0; i < std::size(bad); ++i) {
    EventSimConfig cfg;
    bad[i](cfg);
    EXPECT_THROW(simulate_events(g, offchip, pkts, cfg), std::invalid_argument)
        << i;
    EXPECT_THROW(simulate_events(g, offchip, pairs, policy, cfg),
                 std::invalid_argument)
        << i;
  }
  // The boundary values run.
  EventSimConfig ok;
  ok.fault_mode = true;
  ok.timeout_cycles = 0;
  EXPECT_EQ(simulate_events(g, offchip, pkts, ok).delivered, pkts.size());
}

// ---------------------------------------------------------------------------
// The tie rule: equal times pop in insertion order
// ---------------------------------------------------------------------------

/// The packet walking ring nodes from..to (to > from).
SimPacket ring_walk(std::uint32_t from, std::uint32_t to,
                    std::uint64_t inject) {
  SimPacket p;
  p.src = from;
  p.dst = to;
  p.inject_time = inject;
  for (std::uint32_t v = from; v <= to; ++v) p.path.push_back(v);
  return p;
}

TEST(TieRule, SameCycleInjectionsTakeTheLinkInPacketOrder) {
  // N packets leave ring node 0 at cycle 0 over link 0->1, then walk on one
  // hop per cycle; packet i walks N - i hops.  The packet that takes the
  // link j-th arrives at j + its hop count, so completion is N exactly when
  // packet i is the i-th to take the link: any other order takes some
  // packet i at a position j > i, and it arrives at j + N - i > N.
  constexpr std::uint32_t kN = 8;
  const Graph g = make_ring(kN + 2);
  std::vector<SimPacket> pkts;
  for (std::uint32_t i = 0; i < kN; ++i) pkts.push_back(ring_walk(0, kN - i, 0));
  EventSimConfig cfg;
  const OffchipTable offchip = OffchipTable::uniform(g, false);
  EXPECT_EQ(simulate_events(g, offchip, pkts, cfg).completion_cycles, kN);

  // The observer sees the link taken in packet order.
  cfg.fault_mode = true;
  SimTraceRecorder trace;
  const EventSimResult r =
      simulate_events(g, offchip, pkts, cfg, {}, nullptr, &trace);
  EXPECT_EQ(r.completion_cycles, kN);
  std::vector<std::uint32_t> first_link;
  for (const auto& h : trace.hops) {
    if (h.u == 0 && h.v == 1) first_link.push_back(h.packet);
  }
  std::vector<std::uint32_t> want(kN);
  for (std::uint32_t i = 0; i < kN; ++i) want[i] = i;
  EXPECT_EQ(first_link, want);
}

TEST(TieRule, InjectionsPrecedeTransitEventsAtTheSameCycle) {
  // At cycle 1, packet 0 is injected at ring node 1 and packet 1 arrives
  // there from node 0; both want link 1->2.  Injections pop first, so
  // packet 0 takes it during [1, 2) and reaches node 3 at cycle 3, while
  // packet 1 waits and reaches node 2 at cycle 3.  The other order would
  // finish at cycle 4.
  const Graph g = make_ring(6);
  const std::vector<SimPacket> pkts = {ring_walk(1, 3, 1), ring_walk(0, 2, 0)};
  const EventSimResult r =
      simulate_events(g, OffchipTable::uniform(g, false), pkts, {});
  EXPECT_EQ(r.completion_cycles, 3u);
}

// ---------------------------------------------------------------------------
// The calendar queue against a heap keyed on (time, push order)
// ---------------------------------------------------------------------------

/// Runs EventQueue and the heap side by side.  Both start with packet p
/// pending at inject[p] (pushed into the heap in packet order); every pop
/// must agree, and the popped packet is rescheduled `delay(rng)` cycles on
/// until `reschedules` run out, after which the queues drain.  Returns the
/// number of matching pops.
template <class Delay>
std::size_t queue_matches_heap(const std::vector<std::uint64_t>& inject,
                               Delay delay, std::uint64_t seed,
                               std::size_t reschedules) {
  struct Ref {
    std::uint64_t time;
    std::uint64_t seq;
    std::uint32_t packet;
    bool operator>(const Ref& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };
  std::priority_queue<Ref, std::vector<Ref>, std::greater<Ref>> heap;
  std::uint64_t seq = 0;
  for (std::uint32_t p = 0; p < inject.size(); ++p) {
    heap.push({inject[p], seq++, p});
  }
  std::vector<std::uint32_t> order(inject.size());
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return inject[a] < inject[b];
                   });
  EventQueue queue(std::span<const std::uint32_t>(order),
                   [&](std::uint32_t p) { return inject[p]; });

  std::mt19937_64 rng(seed);
  std::size_t pops = 0;
  QueuedEvent ev;
  while (queue.pop(ev)) {
    if (heap.empty()) {
      ADD_FAILURE() << "the queue pops more events than the heap";
      return pops;
    }
    const Ref want = heap.top();
    heap.pop();
    if (ev.time != want.time || ev.packet != want.packet) {
      ADD_FAILURE() << "pop " << pops << ": queue (" << ev.time << ", "
                    << ev.packet << "), heap (" << want.time << ", "
                    << want.packet << ")";
      return pops;
    }
    ++pops;
    if (reschedules > 0) {
      --reschedules;
      const std::uint64_t t = ev.time + delay(rng);
      queue.push(t, ev.packet);
      heap.push({t, seq++, ev.packet});
    }
    if (queue.size() != heap.size()) {
      ADD_FAILURE() << "pop " << pops << ": queue size " << queue.size()
                    << ", heap size " << heap.size();
      return pops;
    }
  }
  EXPECT_TRUE(heap.empty());
  return pops;
}

TEST(EventQueue, MatchesHeapThroughRingWrapAround) {
  // Every delay stays inside the ring, so each event goes straight to its
  // bucket, while `now` laps the ring many times.
  const std::vector<std::uint64_t> inject(64, 0);
  const auto delay = [](std::mt19937_64& rng) {
    return rng() % kEventRingSlots;
  };
  EXPECT_EQ(queue_matches_heap(inject, delay, 1, 20000), 64u + 20000u);
}

TEST(EventQueue, MatchesHeapThroughOverflowMigration) {
  // Delays on both sides of the ring's horizon, from a few values so that
  // events migrated from the overflow heap and events pushed straight into
  // the ring share cycles; each bucket must keep them in push order.  A
  // delay of 0 schedules into the cycle being drained.
  std::vector<std::uint64_t> inject(96);
  for (std::size_t p = 0; p < inject.size(); ++p) inject[p] = p % 8;
  const std::uint64_t ring = kEventRingSlots;
  const std::uint64_t delays[] = {0, 1, 2, ring - 1, ring, ring + 1, 3 * ring};
  const auto delay = [&](std::mt19937_64& rng) {
    return delays[rng() % std::size(delays)];
  };
  for (const std::uint64_t seed : {2, 3, 4}) {
    EXPECT_EQ(queue_matches_heap(inject, delay, seed, 30000), 96u + 30000u);
  }
}

TEST(EventQueue, MatchesHeapAcrossEmptySpansAndLateInjections) {
  // Injection waves far past the ring and out of packet order, and rare
  // delays of a million cycles: the ring empties, and the queue must jump
  // to whichever comes next, an injection or an overflow event.
  std::vector<std::uint64_t> inject(50);
  for (std::size_t p = 0; p < inject.size(); ++p) {
    inject[p] = (4 - p % 5) * 5000 + p % 3;
  }
  const auto delay = [](std::mt19937_64& rng) -> std::uint64_t {
    return rng() % 16 == 0 ? 1000000 + rng() % 3 : rng() % 4;
  };
  for (const std::uint64_t seed : {5, 6}) {
    EXPECT_EQ(queue_matches_heap(inject, delay, seed, 5000), 50u + 5000u);
  }
}

TEST(EventQueue, EmptyAndSparse) {
  const std::vector<std::uint32_t> none;
  const auto never = [](std::uint32_t) -> std::uint64_t { return 0; };
  EventQueue empty(std::span<const std::uint32_t>(none), never);
  QueuedEvent ev;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_FALSE(empty.pop(ev));

  // One packet, injected late and rescheduled far past the ring.
  const std::vector<std::uint32_t> one = {0};
  const auto late = [](std::uint32_t) -> std::uint64_t { return 1u << 30; };
  EventQueue q(std::span<const std::uint32_t>(one), late);
  ASSERT_TRUE(q.pop(ev));
  EXPECT_EQ(ev.time, 1u << 30);
  q.push(ev.time + 10 * kEventRingSlots, 0);
  ASSERT_TRUE(q.pop(ev));
  EXPECT_EQ(ev.time, (1u << 30) + 10 * kEventRingSlots);
  EXPECT_EQ(ev.packet, 0u);
  EXPECT_FALSE(q.pop(ev));
}

// ---------------------------------------------------------------------------
// RoutePolicy contract + registry
// ---------------------------------------------------------------------------

void expect_valid_walks(RoutePolicy& policy, const NetworkSpec& net,
                        const Graph& g) {
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
  std::vector<std::uint64_t> srcs, dsts;
  std::vector<std::uint32_t> path;
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t s = pick(rng);
    std::uint64_t d = pick(rng);
    if (d == s) d = (d + 1) % net.num_nodes();
    policy.route_path(s, d, path);
    ASSERT_FALSE(path.empty()) << policy.name();
    EXPECT_EQ(path.front(), s) << policy.name();
    EXPECT_EQ(path.back(), d) << policy.name();
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      ASSERT_NE(g.find_arc(path[h], path[h + 1]), g.num_links())
          << policy.name();
    }
    EXPECT_EQ(policy.route_hops(s, d), static_cast<int>(path.size()) - 1)
        << policy.name();
    srcs.push_back(s);
    dsts.push_back(d);
  }
  // Batch must agree with scalar.
  PathArena arena;
  policy.route_paths(srcs, dsts, arena);
  ASSERT_EQ(arena.size(), srcs.size()) << policy.name();
  for (std::size_t i = 0; i < srcs.size(); ++i) {
    policy.route_path(srcs[i], dsts[i], path);
    const std::span<const std::uint32_t> batch_path = arena[i];
    ASSERT_EQ(batch_path.size(), path.size()) << policy.name();
    EXPECT_TRUE(std::equal(path.begin(), path.end(), batch_path.begin()))
        << policy.name();
  }
}

TEST(RoutePolicy, EveryBuiltinEmitsValidWalks) {
  const NetworkSpec net = make_macro_star(2, 2);
  const Graph g = materialize(net);
  for (const char* name : {"game", "bfs", "fault"}) {
    const auto policy = make_route_policy(name, net);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), name);
    expect_valid_walks(*policy, net, g);
  }
}

TEST(RoutePolicy, RegistryRejectsUnknownNames) {
  const NetworkSpec net = make_macro_star(2, 1);
  EXPECT_THROW(make_route_policy("no-such-policy", net), std::invalid_argument);
}

TEST(RoutePolicy, OracleRegistersExplicitly) {
  register_oracle_policy();
  const auto names = route_policy_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "oracle"), names.end());
  const NetworkSpec net = make_macro_star(2, 1);  // k = 3: tiny oracle
  const Graph g = materialize(net);
  const auto policy = make_route_policy("oracle", net);
  expect_valid_walks(*policy, net, g);
}

TEST(RoutePolicy, GamePathsMatchLegacyWorkloadGeneration) {
  // packets_for(GamePolicy) must be byte-identical to the engine-based
  // generation total_exchange_packets always used.
  const NetworkSpec net = make_complete_rotation_star(2, 1);
  GamePolicy policy(net);
  const auto pairs = total_exchange_pairs(net.num_nodes());
  const auto via_policy = packets_for(policy, pairs);
  const auto legacy = total_exchange_packets(net);
  ASSERT_EQ(via_policy.size(), legacy.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(via_policy[i].src, legacy[i].src);
    EXPECT_EQ(via_policy[i].dst, legacy[i].dst);
    EXPECT_EQ(via_policy[i].path, legacy[i].path);
  }
}

// ---------------------------------------------------------------------------
// OffchipTable + telemetry
// ---------------------------------------------------------------------------

TEST(OffchipTable, MatchesPredicatePerArc) {
  const NetworkSpec net = make_macro_star(2, 2);
  const Graph g = materialize(net);
  const auto pred = offchip_of(net);
  const OffchipTable table(g, pred);
  ASSERT_EQ(table.num_arcs(), g.num_links());
  for (std::uint64_t arc = 0; arc < g.num_links(); ++arc) {
    EXPECT_EQ(table.offchip(arc), pred(g.arc_tag(arc))) << arc;
  }
  const OffchipTable all = OffchipTable::uniform(g, true);
  for (std::uint64_t arc = 0; arc < g.num_links(); ++arc) {
    EXPECT_TRUE(all.offchip(arc));
  }
}

TEST(Telemetry, CountsEventsAndQueuePeak) {
  const NetworkSpec net = make_macro_star(2, 2);
  const Graph g = materialize(net);
  const auto pkts = total_exchange_packets(net);
  const EventSimResult r =
      simulate_events(g, mcmp_offchip_table(net, g), pkts, EventSimConfig{});
  // Without faults every packet pops one event per path node: hops transit
  // events plus the arrival event.
  EXPECT_EQ(r.telemetry.events_processed, r.total_hops + r.packets);
  // Every packet is pending at the start, and a pop schedules at most one
  // event, for the same packet.
  EXPECT_EQ(r.telemetry.queue_peak, pkts.size());
  EXPECT_EQ(r.telemetry.route_chunks, 0u);  // pre-routed run
}

// ---------------------------------------------------------------------------
// Policy-generic optimality audit
// ---------------------------------------------------------------------------

TEST(PolicyAudit, GamePolicyAuditMatchesEngineAudit) {
  const NetworkSpec net = make_macro_star(2, 1);  // k = 3, 6 nodes
  const DistanceOracle oracle = DistanceOracle::build(net);
  const OptimalityAudit direct = audit_route_optimality(net, oracle);
  GamePolicy policy(net, RouteEngineConfig{.cache_capacity = 0});
  const OptimalityAudit via_policy =
      audit_policy_optimality(net, oracle, policy);
  EXPECT_EQ(via_policy.sources, direct.sources);
  EXPECT_EQ(via_policy.optimal, direct.optimal);
  EXPECT_EQ(via_policy.avg_stretch, direct.avg_stretch);
  EXPECT_EQ(via_policy.max_stretch, direct.max_stretch);
  EXPECT_EQ(via_policy.max_gap, direct.max_gap);
}

TEST(PolicyAudit, OraclePolicyIsExactlyOptimal) {
  const NetworkSpec net = make_macro_star(2, 1);
  const DistanceOracle oracle = DistanceOracle::build(net);
  OraclePolicy policy(net);
  const OptimalityAudit audit = audit_policy_optimality(net, oracle, policy);
  EXPECT_GT(audit.sources, 0u);
  EXPECT_EQ(audit.optimal_fraction(), 1.0);
  EXPECT_EQ(audit.max_gap, 0);
}

}  // namespace
}  // namespace scg
