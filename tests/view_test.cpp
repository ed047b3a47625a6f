// NetworkView property tests: the compiled batch-expansion path must agree
// exactly (values and generator-index tags) with the naive
// unrank/apply/rank enumeration, for every family, node, and backend.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "collectives/collectives.hpp"
#include "networks/super_cayley.hpp"
#include "networks/view.hpp"
#include "sim/workloads.hpp"
#include "topology/bfs.hpp"
#include "topology/graph.hpp"
#include "topology/metrics.hpp"

namespace scg {
namespace {

std::vector<std::uint64_t> naive_neighbors(const NetworkSpec& net,
                                           std::uint64_t rank) {
  std::vector<std::uint64_t> out(net.generators.size());
  for_each_neighbor(net, rank, [&](std::uint64_t v, int tag) {
    out[static_cast<std::size_t>(tag)] = v;
  });
  return out;
}

std::vector<std::uint64_t> view_neighbors(const NetworkView& view,
                                          std::uint64_t rank) {
  std::array<std::uint64_t, kMaxCompiledDegree> buf;
  const int d = view.expand_neighbors(rank, buf.data());
  return {buf.data(), buf.data() + d};
}

void expect_matches_naive(const NetworkSpec& net) {
  const NetworkView fwd = NetworkView::of(net);
  const NetworkView rev = NetworkView::reverse_of(net);
  ASSERT_EQ(fwd.num_nodes(), net.num_nodes());
  ASSERT_EQ(fwd.degree(), net.degree());
  for (std::uint64_t r = 0; r < net.num_nodes(); ++r) {
    const std::vector<std::uint64_t> want = naive_neighbors(net, r);
    EXPECT_EQ(view_neighbors(fwd, r), want) << net.name << " node " << r;
    // Reverse view: tag j of u's reverse expansion is the node whose
    // forward tag-j neighbor is u.
    const std::vector<std::uint64_t> back = view_neighbors(rev, r);
    for (std::size_t j = 0; j < back.size(); ++j) {
      EXPECT_EQ(naive_neighbors(net, back[j])[j], r)
          << net.name << " node " << r << " reverse tag " << j;
    }
  }
}

TEST(NetworkView, MatchesNaiveOnAllSuperCayleyFamilies) {
  for (const auto& [l, n] : {std::pair{2, 2}, {3, 2}, {2, 3}}) {
    for (const NetworkSpec& net : all_super_cayley(l, n)) {
      expect_matches_naive(net);
    }
  }
}

TEST(NetworkView, MatchesNaiveOnBaselineFamilies) {
  expect_matches_naive(make_star_graph(5));
  expect_matches_naive(make_rotator_graph(5));
  expect_matches_naive(make_bubble_sort_graph(5));
  expect_matches_naive(make_transposition_network(5));
  expect_matches_naive(make_pancake_graph(5));
  expect_matches_naive(make_insertion_selection(5));
}

TEST(NetworkView, ForEachNeighborAgreesWithBatch) {
  const NetworkSpec net = make_macro_star(2, 2);
  const NetworkView view = NetworkView::of(net);
  for (std::uint64_t r = 0; r < net.num_nodes(); ++r) {
    std::vector<std::uint64_t> seen(net.generators.size());
    view.for_each_neighbor(r, [&](std::uint64_t v, std::int32_t tag) {
      seen[static_cast<std::size_t>(tag)] = v;
    });
    EXPECT_EQ(seen, view_neighbors(view, r));
  }
}

TEST(NetworkView, CsrBackendMatchesImplicit) {
  const NetworkSpec net = make_rotation_star(2, 2);  // directed
  const Graph g = materialize(net);
  const NetworkView csr = NetworkView::of(g);
  const NetworkView impl = NetworkView::of(net);
  EXPECT_EQ(csr.backend(), NetworkView::Backend::kCsr);
  EXPECT_EQ(csr.num_nodes(), impl.num_nodes());
  EXPECT_EQ(csr.degree(), impl.degree());
  // (materialize always emits explicit directed arcs, so csr.directed() is
  // true regardless of the network's own directedness.)
  for (std::uint64_t r = 0; r < net.num_nodes(); ++r) {
    EXPECT_EQ(view_neighbors(csr, r), view_neighbors(impl, r));
  }
}

TEST(NetworkView, DistanceStatsIdenticalAcrossBackends) {
  const NetworkSpec net = make_macro_star(2, 2);
  const std::uint64_t src = Permutation::identity(net.k()).rank();
  const Graph g = materialize(net);
  const DistanceStats a = distance_stats(NetworkView::of(net), src);
  const DistanceStats b = distance_stats(NetworkView::of(g), src);
  const DistanceStats c = distance_stats(NetworkView::of(net), src,
                                         /*parallel=*/true);
  EXPECT_EQ(a.histogram, b.histogram);
  EXPECT_EQ(a.histogram, c.histogram);
  EXPECT_EQ(a.eccentricity, b.eccentricity);
}

TEST(NetworkView, BroadcastOverloadsAgreeWithGraph) {
  const NetworkSpec net = make_star_graph(5);
  const Graph g = materialize(net);
  const NetworkView view = NetworkView::of(net);
  const CollectiveResult ga = broadcast_all_port(g, 0);
  const CollectiveResult va = broadcast_all_port(view, 0);
  EXPECT_EQ(ga.rounds, va.rounds);
  EXPECT_EQ(ga.messages, va.messages);
  EXPECT_EQ(ga.complete, va.complete);
  const CollectiveResult gs = broadcast_single_port(g, 0);
  const CollectiveResult vs = broadcast_single_port(view, 0);
  EXPECT_EQ(gs.rounds, vs.rounds);
  EXPECT_EQ(gs.messages, vs.messages);
  EXPECT_EQ(gs.complete, vs.complete);
}

TEST(NetworkView, GraphRoutesOverViewMatchesGraph) {
  const NetworkSpec net = make_star_graph(5);  // undirected
  // GraphRoutes' Graph ctor wants an undirected CSR graph, so rebuild the
  // adjacency with one edge per unordered pair instead of via materialize.
  std::vector<Graph::Edge> edges;
  const NetworkView view = NetworkView::of(net);
  std::array<std::uint64_t, kMaxCompiledDegree> buf;
  for (std::uint64_t u = 0; u < net.num_nodes(); ++u) {
    const int d = view.expand_neighbors(u, buf.data());
    for (int j = 0; j < d; ++j) {
      if (u < buf[j]) edges.push_back(Graph::Edge{u, buf[j], j});
    }
  }
  const Graph g = Graph::build(net.num_nodes(), /*directed=*/false, edges);
  GraphRoutes by_graph(g);
  GraphRoutes by_view(view);
  for (std::uint64_t d = 0; d < 24; ++d) {
    EXPECT_EQ(by_graph.path(0, d), by_view.path(0, d)) << "dst " << d;
  }
}

TEST(NetworkView, GraphRoutesRoutesDirectedViews) {
  const NetworkSpec net = make_rotator_graph(5);  // directed
  const NetworkView toward = NetworkView::reverse_of(net);
  const std::vector<std::uint16_t> dist = bfs_distances(toward, 0);
  GraphRoutes routes(NetworkView::of(net));
  for (std::uint64_t s = 1; s < net.num_nodes(); s += 17) {
    const std::vector<std::uint32_t> path = routes.path(s, 0);
    EXPECT_EQ(path.size(), static_cast<std::size_t>(dist[s]) + 1) << "src " << s;
    EXPECT_EQ(path.front(), s);
    EXPECT_EQ(path.back(), 0u);
  }
}

TEST(NetworkView, RejectsOversizedGeneratorSets) {
  NetworkSpec net = make_star_graph(4);
  while (net.generators.size() <= static_cast<std::size_t>(kMaxCompiledDegree)) {
    net.generators.push_back(net.generators[0]);
  }
  EXPECT_THROW(NetworkView::of(net), std::invalid_argument);
}

// Materialization guards: node counts past UINT32_MAX cannot be represented
// by CSR edge endpoints, so both entry points must refuse instead of
// silently truncating (or allocating hundreds of GB first).
TEST(MaterializeGuard, RejectsNetworksPastUint32Nodes) {
  const NetworkSpec net = make_star_graph(13);  // 13! > UINT32_MAX
  EXPECT_THROW(materialize(net), std::invalid_argument);
}

TEST(MaterializeGuard, GraphBuildRejectsPastUint32Nodes) {
  EXPECT_THROW(Graph::build(std::uint64_t{5'000'000'000}, true, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace scg
