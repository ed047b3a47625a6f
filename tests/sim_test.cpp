// MCMP simulator: latency accounting, FIFO link contention, conservation,
// and workload generation.
#include <gtest/gtest.h>

#include "sim/event_core.hpp"
#include "sim/workloads.hpp"
#include "topology/baselines.hpp"
#include "topology/metrics.hpp"

namespace scg {
namespace {

TEST(Simulator, SinglePacketLatencyIsHopsTimesOccupancy) {
  const Graph g = make_path(5);
  EventSimConfig cfg;
  cfg.offchip_cycles_per_flit = 3;
  std::vector<SimPacket> pkts(1);
  pkts[0].src = 0;
  pkts[0].dst = 4;
  pkts[0].path = {0, 1, 2, 3, 4};
  const EventSimResult r =
      simulate_events(g, OffchipTable::uniform(g, true), pkts, cfg);
  EXPECT_EQ(r.completion_cycles, 4u * 3u);
  EXPECT_EQ(r.total_hops, 4u);
  EXPECT_EQ(r.offchip_hops, 4u);
  EXPECT_NEAR(r.avg_latency, 12.0, 1e-12);
}

TEST(Simulator, OnchipHopsAreCheap) {
  const Graph g = make_path(5);
  EventSimConfig cfg;
  cfg.onchip_cycles_per_flit = 1;
  cfg.offchip_cycles_per_flit = 10;
  std::vector<SimPacket> pkts(1);
  pkts[0].src = 0;
  pkts[0].dst = 4;
  pkts[0].path = {0, 1, 2, 3, 4};
  const EventSimResult r =
      simulate_events(g, OffchipTable::uniform(g, false), pkts, cfg);
  EXPECT_EQ(r.completion_cycles, 4u);
  EXPECT_EQ(r.offchip_hops, 0u);
}

TEST(Simulator, ContentionSerialisesALink) {
  // Two packets over the same single link: the second waits.
  const Graph g = make_path(2);
  EventSimConfig cfg;
  cfg.offchip_cycles_per_flit = 5;
  std::vector<SimPacket> pkts(2);
  for (auto& p : pkts) {
    p.src = 0;
    p.dst = 1;
    p.path = {0, 1};
  }
  const EventSimResult r =
      simulate_events(g, OffchipTable::uniform(g, true), pkts, cfg);
  EXPECT_EQ(r.completion_cycles, 10u);       // 5 then 10
  EXPECT_NEAR(r.avg_latency, 7.5, 1e-12);    // (5 + 10) / 2
  EXPECT_NEAR(r.max_link_busy, 10.0, 1e-12);
}

TEST(Simulator, OppositeDirectionsDoNotContend) {
  // The two directions of an undirected link are separate arcs.
  const Graph g = make_path(2);
  EventSimConfig cfg;
  cfg.offchip_cycles_per_flit = 5;
  std::vector<SimPacket> pkts(2);
  pkts[0].src = 0;
  pkts[0].dst = 1;
  pkts[0].path = {0, 1};
  pkts[1].src = 1;
  pkts[1].dst = 0;
  pkts[1].path = {1, 0};
  const EventSimResult r =
      simulate_events(g, OffchipTable::uniform(g, true), pkts, cfg);
  EXPECT_EQ(r.completion_cycles, 5u);
}

TEST(Simulator, InjectTimeDelaysAPacket) {
  const Graph g = make_path(2);
  EventSimConfig cfg;
  std::vector<SimPacket> pkts(1);
  pkts[0].src = 0;
  pkts[0].dst = 1;
  pkts[0].path = {0, 1};
  pkts[0].inject_time = 100;
  const EventSimResult r =
      simulate_events(g, OffchipTable::uniform(g, true), pkts, cfg);
  EXPECT_EQ(r.completion_cycles, 101u);
  EXPECT_NEAR(r.avg_latency, 1.0, 1e-12);  // latency counts from injection
}

TEST(Simulator, RejectsBrokenPaths) {
  const Graph g = make_path(3);
  const OffchipTable offchip = OffchipTable::uniform(g, true);
  EventSimConfig cfg;
  std::vector<SimPacket> pkts(1);
  pkts[0].src = 0;
  pkts[0].dst = 2;
  pkts[0].path = {0, 2};  // 0-2 is not a link
  EXPECT_THROW(simulate_events(g, offchip, pkts, cfg), std::invalid_argument);
  pkts[0].path = {1, 2};  // does not start at src
  EXPECT_THROW(simulate_events(g, offchip, pkts, cfg), std::invalid_argument);
}

TEST(GraphRoutes, ShortestPathsOnRing) {
  const Graph g = make_ring(8);
  GraphRoutes routes(g);
  EXPECT_EQ(routes.path(0, 3).size(), 4u);  // 3 hops
  EXPECT_EQ(routes.path(0, 5).size(), 4u);  // wraps the other way: 3 hops
  EXPECT_EQ(routes.path(2, 2).size(), 1u);
}

TEST(GraphRoutes, PathsAreWalks) {
  const Graph g = make_torus_2d(4, 5);
  GraphRoutes routes(g);
  const auto dist = bfs_distances(g, 13);
  for (std::uint64_t s = 0; s < g.num_nodes(); ++s) {
    const auto path = routes.path(s, 13);
    EXPECT_EQ(path.size(), static_cast<std::size_t>(dist[s]) + 1);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      EXPECT_NE(g.find_arc(path[i], path[i + 1]), g.num_links());
    }
  }
}

TEST(Workloads, TotalExchangeCountsAndEndpoints) {
  const NetworkSpec net = make_macro_star(2, 1);  // k = 3, N = 6
  const auto pkts = total_exchange_packets(net);
  EXPECT_EQ(pkts.size(), 6u * 5u);
  for (const SimPacket& p : pkts) {
    EXPECT_NE(p.src, p.dst);
    EXPECT_EQ(p.path.front(), p.src);
    EXPECT_EQ(p.path.back(), p.dst);
  }
}

TEST(Workloads, CayleyPathsAreValidWalks) {
  const NetworkSpec net = make_complete_rotation_star(2, 2);
  const Graph g = materialize(net);
  for (const SimPacket& p : total_exchange_packets(net)) {
    for (std::size_t i = 0; i + 1 < p.path.size(); ++i) {
      ASSERT_NE(g.find_arc(p.path[i], p.path[i + 1]), g.num_links());
    }
  }
}

TEST(Workloads, RandomTrafficRespectsPerNodeCount) {
  const NetworkSpec net = make_macro_star(2, 1);  // N = 6
  const auto pkts = random_traffic_packets(net, 3, 42);
  EXPECT_EQ(pkts.size(), 18u);
  const auto again = random_traffic_packets(net, 3, 42);
  ASSERT_EQ(again.size(), pkts.size());
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    EXPECT_EQ(pkts[i].dst, again[i].dst) << "seeded generation must be deterministic";
  }
}

TEST(Workloads, TotalExchangeOffchipHopsMatchInterclusterDistances) {
  // In a TE the number of off-chip transmissions equals the sum of
  // intercluster distances over all ordered pairs *if* routes are
  // intercluster-optimal.  Our game routes are not always, so >= holds.
  const NetworkSpec net = make_macro_star(2, 2);
  const Graph g = materialize(net);
  const EventSimResult r =
      simulate_events(g, mcmp_offchip_table(net, g),
                      total_exchange_packets(net), EventSimConfig{});
  const DistanceStats ic = intercluster_distance_stats(net);
  const double lower = ic.average * static_cast<double>(net.num_nodes()) *
                       static_cast<double>(net.num_nodes() - 1);
  EXPECT_GE(static_cast<double>(r.offchip_hops), lower - 1e-6);
}

TEST(Simulator, EmptyPacketListIsFine) {
  const Graph g = make_ring(4);
  const EventSimResult r =
      simulate_events(g, OffchipTable::uniform(g, true),
                      std::vector<SimPacket>{}, EventSimConfig{});
  EXPECT_EQ(r.completion_cycles, 0u);
  EXPECT_EQ(r.packets, 0u);
}

}  // namespace
}  // namespace scg
