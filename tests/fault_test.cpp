// Fault tolerance: edge connectivity of Cayley graphs equals degree
// (connected vertex-symmetric graphs are maximally edge-connected), fault
// injection, FaultSet semantics, fault-filtered views, and survival under
// random failures sampled without replacement.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "networks/view.hpp"
#include "topology/baselines.hpp"
#include "topology/bfs.hpp"
#include "topology/fault.hpp"
#include "topology/fault_set.hpp"
#include "topology/metrics.hpp"

namespace scg {
namespace {

TEST(EdgeConnectivity, PairOnRing) {
  const Graph g = make_ring(8);
  EXPECT_EQ(edge_connectivity_pair(g, 0, 4), 2u);
  EXPECT_EQ(edge_connectivity(g), 2u);
}

TEST(EdgeConnectivity, Hypercube) {
  for (int d = 2; d <= 5; ++d) {
    EXPECT_EQ(edge_connectivity(make_hypercube(d)), static_cast<std::uint64_t>(d));
  }
}

TEST(EdgeConnectivity, PathIsOne) {
  EXPECT_EQ(edge_connectivity(make_path(6)), 1u);
}

TEST(EdgeConnectivity, CompleteGraph) {
  EXPECT_EQ(edge_connectivity(make_complete(6)), 5u);
}

TEST(EdgeConnectivity, SuperCayleyGraphsAreMaximallyConnected) {
  // Connected vertex-symmetric graphs have edge connectivity == degree;
  // verify exactly on materialised N = 120 instances.
  for (const NetworkSpec& net :
       {make_macro_star(2, 2), make_complete_rotation_star(2, 2),
        make_macro_is(2, 2), make_star_graph(5)}) {
    if (net.directed) continue;
    const Graph g = materialize(net);
    EXPECT_EQ(edge_connectivity(g), static_cast<std::uint64_t>(net.degree()))
        << net.name;
  }
}

TEST(VertexConnectivity, KnownGraphs) {
  EXPECT_EQ(vertex_connectivity(make_ring(8)), 2u);
  EXPECT_EQ(vertex_connectivity(make_path(5)), 1u);
  EXPECT_EQ(vertex_connectivity(make_complete(6)), 5u);
  for (int d = 2; d <= 4; ++d) {
    EXPECT_EQ(vertex_connectivity(make_hypercube(d)), static_cast<std::uint64_t>(d));
  }
}

TEST(VertexConnectivity, PairOnRing) {
  const Graph g = make_ring(8);
  EXPECT_EQ(vertex_connectivity_pair(g, 0, 4), 2u);
  // Adjacent pair: the direct edge plus the long way around.
  EXPECT_EQ(vertex_connectivity_pair(g, 0, 1), 2u);
}

TEST(VertexConnectivity, StarGraphIsKMinusTwo) {
  // The k-star's vertex connectivity is k-1... its degree; verify on the
  // 4-star (24 nodes, degree 3): kappa == 3.
  const Graph g = materialize(make_star_graph(4));
  EXPECT_EQ(vertex_connectivity(g), 3u);
}

TEST(VertexConnectivity, SuperCayleyAtSmallSize) {
  // MS(2,1) == 3-star: degree 2, kappa 2 (a 6-cycle).
  const Graph g = materialize(make_macro_star(2, 1));
  EXPECT_EQ(vertex_connectivity(g), 2u);
  // MS(3,1): degree 3 Cayley graph of S4; kappa == 3.
  const Graph g2 = materialize(make_macro_star(3, 1));
  EXPECT_EQ(vertex_connectivity(g2), 3u);
}

TEST(Connectivity, EqualsDegreeOnSuperCayleyInstances) {
  // Regression for the Mader/Watkins fact stated in fault.hpp: on the small
  // MS/RS/IS instances both edge connectivity AND vertex connectivity equal
  // the degree (maximal fault tolerance: degree-many disjoint routes).
  for (const NetworkSpec& net :
       {make_macro_star(2, 2), make_rotation_star(2, 2),
        make_insertion_selection(4), make_macro_star(3, 1)}) {
    ASSERT_FALSE(net.directed) << net.name;
    const Graph g = materialize(net);
    EXPECT_EQ(edge_connectivity(g), static_cast<std::uint64_t>(net.degree()))
        << net.name;
    EXPECT_EQ(vertex_connectivity(g), static_cast<std::uint64_t>(net.degree()))
        << net.name;
  }
}

TEST(FaultSetType, MembershipAndBlocking) {
  FaultSet f;
  EXPECT_TRUE(f.empty());
  f.fail_node(3);
  f.fail_link(1, 2);
  f.fail_arc(5, 6);
  EXPECT_TRUE(f.node_failed(3));
  EXPECT_FALSE(f.node_failed(1));
  EXPECT_TRUE(f.arc_failed(1, 2));
  EXPECT_TRUE(f.arc_failed(2, 1));  // link fails both directions
  EXPECT_TRUE(f.arc_failed(5, 6));
  EXPECT_FALSE(f.arc_failed(6, 5));  // arc fails one direction
  EXPECT_TRUE(f.blocks(1, 2));
  EXPECT_TRUE(f.blocks(3, 0));   // failed endpoint blocks every hop
  EXPECT_TRUE(f.blocks(0, 3));
  EXPECT_FALSE(f.blocks(0, 1));
  EXPECT_EQ(f.num_failed_nodes(), 1u);
  EXPECT_EQ(f.num_failed_arcs(), 3u);
  f.clear();
  EXPECT_TRUE(f.empty());
}

TEST(FaultFilteredView, MatchesWithFaultsGraph) {
  // BFS over the fault-filtered implicit view must agree with BFS over the
  // materialized faulty graph, for every surviving node.
  const NetworkSpec net = make_macro_star(2, 2);
  const Graph g = materialize(net);
  const NetworkView view = NetworkView::of(net);
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 5; ++trial) {
    const FaultSet faults = sample_random_faults(g, 1, 2, rng);
    const Graph h = with_faults(g, faults);
    const FaultFiltered<NetworkView> filtered(view, faults);
    std::uint64_t src = 0;
    while (faults.node_failed(src)) ++src;
    const auto dg = bfs_distances(h, src);
    const auto dv = bfs_distances(filtered, src);
    for (std::uint64_t u = 0; u < g.num_nodes(); ++u) {
      if (faults.node_failed(u)) continue;
      EXPECT_EQ(dg[u], dv[u]) << "node " << u;
    }
  }
}

TEST(SampleRandomFaults, DrawsWithoutReplacement) {
  // ring(6) has exactly 6 physical links: requesting all 6 must fail all 6
  // (duplicate draws would silently under-fail), disconnecting everything.
  const Graph g = make_ring(6);
  std::mt19937_64 rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const FaultSet f = sample_random_faults(g, 0, 6, rng);
    EXPECT_EQ(f.num_failed_arcs(), 12u);  // 6 links, both directions
    EXPECT_FALSE(connected_after_faults(g, f));
  }
  // Node draws are distinct too: the largest legal request (one survivor)
  // kills exactly that many distinct nodes.
  const FaultSet most = sample_random_faults(g, 5, 0, rng);
  EXPECT_EQ(most.num_failed_nodes(), 5u);
  // Over-requests are scripting bugs and must be rejected loudly instead of
  // silently clamping: all 6 nodes, or more links than physical channels.
  EXPECT_THROW(sample_random_faults(g, 6, 0, rng), std::invalid_argument);
  EXPECT_THROW(sample_random_faults(g, 0, 7, rng), std::invalid_argument);
  EXPECT_THROW(sample_random_faults(g, -1, 0, rng), std::invalid_argument);
}

TEST(SampleCorrelatedFaults, RadiusBallChannelsFail) {
  // ring(8), one region of radius 2: the ball holds 5 consecutive nodes and
  // exactly the 4 channels joining them die — the ball's interior is cut
  // off from the survivors (that is what a correlated outage does).
  const Graph g = make_ring(8);
  std::mt19937_64 rng(11);
  const FaultSet f = sample_correlated_faults(g, 1, 2, rng);
  EXPECT_EQ(f.num_failed_arcs(), 8u);  // 4 channels, both directions
  EXPECT_FALSE(connected_after_faults(g, f));  // interior nodes isolated
  // Radius spanning the whole ring kills every channel.
  const FaultSet all = sample_correlated_faults(g, 1, 4, rng);
  EXPECT_EQ(all.num_failed_arcs(), 16u);
  EXPECT_THROW(sample_correlated_faults(g, 0, 1, rng), std::invalid_argument);
  EXPECT_THROW(sample_correlated_faults(g, 1, 0, rng), std::invalid_argument);
}

TEST(SampleRandomFaults, ExactCountsBelowThreshold) {
  const NetworkSpec net = make_macro_star(2, 2);
  const Graph g = materialize(net);
  std::mt19937_64 rng(17);
  const FaultSet f = sample_random_faults(g, 3, 5, rng);
  EXPECT_EQ(f.num_failed_nodes(), 3u);
  EXPECT_EQ(f.num_failed_arcs(), 10u);  // 5 undirected links
}

TEST(WithFaults, RemovesNodesAndLinks) {
  const Graph g = make_ring(6);
  const Graph h = with_faults(g, FaultSet::of({2}, {{0, 1}}));
  EXPECT_EQ(h.out_degree(2), 0u);
  EXPECT_EQ(h.find_arc(0, 1), h.num_links());
  EXPECT_EQ(h.find_arc(1, 0), h.num_links());  // undirected: both dropped
  EXPECT_NE(h.find_arc(4, 5), h.num_links());
  EXPECT_EQ(h.find_arc(1, 2), h.num_links());  // incident to failed node
}

TEST(ConnectedAfterFaults, DetectsDisconnection) {
  const Graph g = make_ring(6);
  EXPECT_TRUE(connected_after_faults(g, FaultSet::of({}, {})));
  // still a path:
  EXPECT_TRUE(connected_after_faults(g, FaultSet::of({}, {{0, 1}})));
  // split:
  EXPECT_FALSE(connected_after_faults(g, FaultSet::of({}, {{0, 1}, {3, 4}})));
  // path remains:
  EXPECT_TRUE(connected_after_faults(g, FaultSet::of({0}, {})));
  // split:
  EXPECT_FALSE(connected_after_faults(g, FaultSet::of({0, 3}, {})));
}

TEST(ConnectedAfterFaults, TrivialCases) {
  const Graph g = make_ring(4);
  // single survivor:
  EXPECT_TRUE(connected_after_faults(g, FaultSet::of({0, 1, 2}, {})));
  // none:
  EXPECT_TRUE(connected_after_faults(g, FaultSet::of({0, 1, 2, 3}, {})));
}

TEST(FaultTolerance, DegreeMinusOneLinkFailuresNeverDisconnect) {
  // Edge connectivity == degree, so any degree-1 link failures keep the
  // network connected; spot-check many random failure sets.
  const NetworkSpec net = make_macro_star(2, 2);  // degree 3
  const Graph g = materialize(net);
  const double rate =
      random_fault_survival_rate(g, 0, net.degree() - 1, 200, 7);
  EXPECT_EQ(rate, 1.0);
}

TEST(FaultTolerance, SurvivalDegradesGracefully) {
  const NetworkSpec net = make_complete_rotation_star(2, 2);
  const Graph g = materialize(net);
  const double light = random_fault_survival_rate(g, 1, 2, 100, 11);
  EXPECT_GE(light, 0.9);  // far below the connectivity threshold
}

TEST(FaultTolerance, StarGraphNodeFaults) {
  // Star graphs tolerate node failures well (their node connectivity is
  // k-1); removing 2 random nodes of the 5-star must keep it connected in
  // virtually every trial.
  const Graph g = materialize(make_star_graph(5));
  EXPECT_GE(random_fault_survival_rate(g, 2, 0, 100, 3), 0.99);
}

}  // namespace
}  // namespace scg
