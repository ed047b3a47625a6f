// Flit-level virtual cut-through simulation: pipelining, serialisation, and
// the Section 4.2 point that hop count still matters under load.
#include <gtest/gtest.h>

#include "sim/event_core.hpp"
#include "sim/workloads.hpp"
#include "topology/baselines.hpp"
#include "topology/metrics.hpp"

namespace scg {
namespace {

SimPacket line_packet(std::uint32_t hops) {
  SimPacket p;
  p.src = 0;
  p.dst = hops;
  for (std::uint32_t i = 0; i <= hops; ++i) p.path.push_back(i);
  return p;
}

/// Runs `pkts` with every link on-chip (false) or off-chip (true).
EventSimResult run_uniform(const Graph& g, bool offchip,
                           const std::vector<SimPacket>& pkts,
                           const EventSimConfig& cfg) {
  return simulate_events(g, OffchipTable::uniform(g, offchip), pkts, cfg);
}

TEST(CutThrough, SinglePacketLatencyIsPipelined) {
  // F flits over h unit-cycle hops: head pipelines, tail arrives at
  // h - 1 + F cycles (not h*F as in store-and-forward).
  const Graph g = make_path(6);
  EventSimConfig cfg;
  cfg.flits_per_packet = 4;
  const EventSimResult r = run_uniform(g, false, {line_packet(5)}, cfg);
  EXPECT_EQ(r.completion_cycles, 5u - 1u + 4u);
  EXPECT_EQ(r.flit_hops, 5u * 4u);
}

TEST(CutThrough, SingleFlitMatchesStoreAndForward) {
  // One flit per packet has nothing to pipeline: every hop costs the full
  // store-and-forward occupancy, h * c.
  const Graph g = make_path(5);
  EventSimConfig cfg;
  cfg.flits_per_packet = 1;
  cfg.offchip_cycles_per_flit = 3;
  const EventSimResult r = run_uniform(g, true, {line_packet(4)}, cfg);
  EXPECT_EQ(r.completion_cycles, 4u * 3u);
  EXPECT_EQ(r.flit_hops, r.total_hops);
}

TEST(CutThrough, SlowLinksSerialiseFlits) {
  // One hop, F=4 flits, 3 cycles/flit: 12 cycles.
  const Graph g = make_path(2);
  EventSimConfig cfg;
  cfg.flits_per_packet = 4;
  cfg.offchip_cycles_per_flit = 3;
  const EventSimResult r = run_uniform(g, true, {line_packet(1)}, cfg);
  EXPECT_EQ(r.completion_cycles, 12u);
}

TEST(CutThrough, MixedSpeedPipelineIsConsistent) {
  // Two hops: slow off-chip (3 cyc/flit) then fast on-chip (1 cyc/flit).
  // The fast link cannot finish before the slow link has delivered the
  // last flit: completion >= 4*3 (slow tail) and >= slow tail + 1.
  const Graph g = Graph::build(3, false, {{0, 1, 1}, {1, 2, 0}});
  EventSimConfig cfg;
  cfg.flits_per_packet = 4;
  cfg.offchip_cycles_per_flit = 3;
  SimPacket p;
  p.src = 0;
  p.dst = 2;
  p.path = {0, 1, 2};
  const EventSimResult r = simulate_events(
      g, OffchipTable(g, [](std::int32_t tag) { return tag == 1; }),
      std::vector<SimPacket>{p}, cfg);
  EXPECT_EQ(r.completion_cycles, 13u);  // 12 (slow tail) + 1 (last fast flit)
}

TEST(CutThrough, ContentionSerialisesPackets) {
  const Graph g = make_path(2);
  EventSimConfig cfg;
  cfg.flits_per_packet = 2;
  std::vector<SimPacket> pkts(3, line_packet(1));
  const EventSimResult r = run_uniform(g, false, pkts, cfg);
  EXPECT_EQ(r.completion_cycles, 6u);  // 2 + 2 + 2 on one link
  EXPECT_NEAR(r.avg_latency, (2.0 + 4.0 + 6.0) / 3.0, 1e-12);
}

TEST(CutThrough, BeatsStoreAndForwardOnLongPaths) {
  // Section 4.2: cut-through removes the per-hop packet serialisation for a
  // lone packet...
  const Graph g = make_path(9);
  EventSimConfig ct;
  ct.flits_per_packet = 8;
  const EventSimResult a = run_uniform(g, false, {line_packet(8)}, ct);
  EventSimConfig sf;
  sf.onchip_cycles_per_flit = 8;  // whole packet per hop
  const EventSimResult b = run_uniform(g, false, {line_packet(8)}, sf);
  EXPECT_LT(a.completion_cycles, b.completion_cycles);
  EXPECT_EQ(a.completion_cycles, 8u - 1u + 8u);
  EXPECT_EQ(b.completion_cycles, 8u * 8u);
}

TEST(CutThrough, UnderLoadHopCountStillDominates) {
  // ...but under all-to-all load the network with smaller average distance
  // still wins, which is the paper's Section 4.2 argument.  Compare TE on
  // complete-RS(2,2) (avg distance 4.82) vs a ring of 120 nodes (avg 30).
  const NetworkSpec net = make_complete_rotation_star(2, 2);
  const Graph crs = materialize(net);
  EventSimConfig cfg;
  cfg.flits_per_packet = 4;
  const EventSimResult a =
      run_uniform(crs, false, total_exchange_packets(net), cfg);
  const Graph ring = make_ring(120);
  const EventSimResult b =
      run_uniform(ring, false, total_exchange_packets(ring), cfg);
  EXPECT_LT(a.completion_cycles, b.completion_cycles / 3);
}

TEST(CutThrough, RejectsBadInput) {
  const Graph g = make_path(3);
  EventSimConfig cfg;
  cfg.flits_per_packet = 0;
  EXPECT_THROW(run_uniform(g, false, {line_packet(1)}, cfg),
               std::invalid_argument);
  cfg.flits_per_packet = 2;
  SimPacket p;
  p.src = 0;
  p.dst = 2;
  p.path = {0, 2};  // not a link
  EXPECT_THROW(run_uniform(g, false, {p}, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace scg
