// Cross-model property tests over randomised topologies and packet sets:
// multi-flit cut-through against store-and-forward at the same packet
// serialisation, plus determinism and conservation.  (That the two models
// agree exactly at one flit per packet is checked against both seed loops
// in event_core_test's OneFlitEquivalence suite.)
#include <gtest/gtest.h>

#include <random>

#include "sim/event_core.hpp"
#include "sim/workloads.hpp"
#include "topology/baselines.hpp"
#include "topology/metrics.hpp"

namespace scg {
namespace {

std::vector<SimPacket> random_packets(const Graph& g, int count,
                                      std::uint64_t seed) {
  GraphRoutes routes(g);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint64_t> pick(0, g.num_nodes() - 1);
  std::vector<SimPacket> pkts;
  for (int i = 0; i < count; ++i) {
    std::uint64_t s = pick(rng);
    std::uint64_t d = pick(rng);
    if (s == d) d = (d + 1) % g.num_nodes();
    SimPacket p;
    p.src = s;
    p.dst = d;
    p.path = routes.path(s, d);
    p.inject_time = rng() % 16;
    pkts.push_back(std::move(p));
  }
  return pkts;
}

TEST(CutThroughVsSaf, PipeliningHelpsUpToSchedulingAnomalies) {
  // With F flits, cut-through pipelines hops.  Under contention, FIFO
  // arbitration anomalies can cost a few cycles (earlier-ready packets can
  // reorder link grants), but completion never exceeds store-and-forward
  // by more than one packet's serialisation, and is typically well below.
  const Graph graphs[] = {make_ring(12), make_hypercube(5), make_torus_2d(5, 5)};
  for (const Graph& g : graphs) {
    const auto pkts = random_packets(g, 80, 99);
    const OffchipTable all = OffchipTable::uniform(g, true);
    for (int flits : {2, 4, 8}) {
      EventSimConfig sf;
      sf.onchip_cycles_per_flit = flits;
      sf.offchip_cycles_per_flit = flits;
      const EventSimResult a = simulate_events(g, all, pkts, sf);
      EventSimConfig ct;
      ct.flits_per_packet = flits;
      const EventSimResult b = simulate_events(g, all, pkts, ct);
      EXPECT_LE(b.completion_cycles,
                a.completion_cycles + static_cast<std::uint64_t>(flits))
          << "flits=" << flits;
      // Average latency does benefit from pipelining.
      EXPECT_LE(b.avg_latency, a.avg_latency + flits) << "flits=" << flits;
    }
  }
}

TEST(CutThroughVsSaf, LonePacketStrictlyFasterOnMultiHopPaths) {
  // Without contention there is no anomaly: (h-1+F)c < h*F*c for h,F >= 2.
  const Graph g = make_ring(12);
  GraphRoutes routes(g);
  const OffchipTable all = OffchipTable::uniform(g, true);
  std::vector<SimPacket> pkts(1);
  pkts[0].src = 0;
  pkts[0].dst = 6;
  pkts[0].path = routes.path(0, 6);
  for (int flits : {2, 4, 8}) {
    EventSimConfig sf;
    sf.onchip_cycles_per_flit = flits;
    sf.offchip_cycles_per_flit = flits;
    const EventSimResult a = simulate_events(g, all, pkts, sf);
    EventSimConfig ct;
    ct.flits_per_packet = flits;
    const EventSimResult b = simulate_events(g, all, pkts, ct);
    EXPECT_LT(b.completion_cycles, a.completion_cycles) << "flits=" << flits;
  }
}

TEST(SimulatorDeterminism, RepeatRunsAgree) {
  const Graph g = make_torus_2d(4, 4);
  const auto pkts = random_packets(g, 100, 7);
  const OffchipTable all = OffchipTable::uniform(g, true);
  EventSimConfig cfg;
  cfg.offchip_cycles_per_flit = 3;
  const EventSimResult a = simulate_events(g, all, pkts, cfg);
  const EventSimResult b = simulate_events(g, all, pkts, cfg);
  EXPECT_EQ(a.completion_cycles, b.completion_cycles);
  EXPECT_EQ(a.total_hops, b.total_hops);
  EXPECT_NEAR(a.avg_latency, b.avg_latency, 1e-12);
}

TEST(SimulatorConservation, EveryPacketArrivesOnce) {
  const Graph g = make_hypercube(5);
  const auto pkts = random_packets(g, 200, 23);
  const EventSimResult r = simulate_events(g, OffchipTable::uniform(g, true),
                                           pkts, EventSimConfig{});
  EXPECT_EQ(r.packets, 200u);
  std::uint64_t expected_hops = 0;
  for (const SimPacket& p : pkts) expected_hops += p.path.size() - 1;
  EXPECT_EQ(r.total_hops, expected_hops);
}

}  // namespace
}  // namespace scg
