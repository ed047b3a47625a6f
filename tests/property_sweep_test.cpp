// Cross-family property sweeps at larger sizes (k = 9, 10): sampled
// invariants that must hold for EVERY network class simultaneously —
// routing validity and bound compliance, distance consistency between the
// router and sampled BFS, cluster structure, and generator sanity.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <utility>

#include "analysis/formulas.hpp"
#include "closed_forms.hpp"
#include "networks/router.hpp"
#include "topology/metrics.hpp"

namespace scg {
namespace {

/// All families instantiated at k = 9 (l=2,n=4 and l=4,n=2 variants).
std::vector<NetworkSpec> k9_networks() {
  std::vector<NetworkSpec> nets;
  for (const auto& [l, n] : std::vector<std::pair<int, int>>{{2, 4}, {4, 2}}) {
    for (NetworkSpec& s : all_super_cayley(l, n)) nets.push_back(std::move(s));
  }
  nets.push_back(make_star_graph(9));
  nets.push_back(make_rotator_graph(9));
  nets.push_back(make_pancake_graph(9));
  nets.push_back(make_partial_rotation_star(4, 2, {1, 2}));
  nets.push_back(make_recursive_macro_star(2, 2, 2));
  return nets;
}

class SweepK9 : public testing::TestWithParam<int> {};

TEST(PropertySweep, RoutingIsValidAndBoundedAtK9) {
  std::mt19937_64 rng(2026);
  for (const NetworkSpec& net : k9_networks()) {
    std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
    const int bound = diameter_upper_bound(net);
    for (int trial = 0; trial < 25; ++trial) {
      const Permutation from = Permutation::unrank(9, pick(rng));
      const Permutation to = Permutation::unrank(9, pick(rng));
      const auto word = route(net, from, to);
      ASSERT_EQ(check_route(net, from, to, word), "")
          << net.name << " " << from.to_string() << "->" << to.to_string();
      ASSERT_LE(static_cast<int>(word.size()), bound) << net.name;
    }
  }
}

TEST(PropertySweep, RouteLengthIsTranslationInvariantAtK9) {
  std::mt19937_64 rng(77);
  for (const NetworkSpec& net : k9_networks()) {
    std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
    for (int trial = 0; trial < 5; ++trial) {
      const Permutation u = Permutation::unrank(9, pick(rng));
      const Permutation v = Permutation::unrank(9, pick(rng));
      const Permutation x = Permutation::unrank(9, pick(rng));
      EXPECT_EQ(route_length(net, u, v),
                route_length(net, u.relabel_symbols(x), v.relabel_symbols(x)))
          << net.name;
    }
  }
}

TEST(PropertySweep, NeighborsAreDistinctAndOffByOneGenerator) {
  std::mt19937_64 rng(5);
  for (const NetworkSpec& net : k9_networks()) {
    std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
    for (int trial = 0; trial < 5; ++trial) {
      const std::uint64_t r = pick(rng);
      std::vector<std::uint64_t> nbrs;
      for_each_neighbor(net, r, [&](std::uint64_t v, int) { nbrs.push_back(v); });
      ASSERT_EQ(nbrs.size(), static_cast<std::size_t>(net.degree())) << net.name;
      std::sort(nbrs.begin(), nbrs.end());
      EXPECT_EQ(std::adjacent_find(nbrs.begin(), nbrs.end()), nbrs.end())
          << net.name << ": duplicate neighbor";
      EXPECT_EQ(std::find(nbrs.begin(), nbrs.end(), r), nbrs.end())
          << net.name << ": self-loop";
    }
  }
}

TEST(PropertySweep, ClusterInvariantsAtK9) {
  std::mt19937_64 rng(9);
  for (const NetworkSpec& net : k9_networks()) {
    if (net.family == Family::kRecursiveMacroStar) continue;  // nested clusters
    std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
    for (int trial = 0; trial < 10; ++trial) {
      const Permutation u = Permutation::unrank(9, pick(rng));
      const std::uint64_t c = net.cluster_of(u);
      for (const Generator& g : net.generators) {
        const std::uint64_t c2 = net.cluster_of(g.applied(u));
        if (is_nucleus(g.kind)) {
          EXPECT_EQ(c2, c) << net.name << " " << g.name();
        }
      }
    }
  }
}

// Recomputed from primitives as a cross-check on analysis/bounds.
double universal_lower_bound_for(const NetworkSpec& net) {
  const double n = static_cast<double>(net.num_nodes());
  const int d = net.degree();
  if (d <= 2) return 1.0;
  return std::log(n) / std::log(static_cast<double>(d - 1)) +
         std::log(1.0 - 2.0 / d) / std::log(static_cast<double>(d - 1));
}

TEST(PropertySweep, MeasuredDiametersRespectUniversalBoundAtK9) {
  // BFS from the identity (k = 9 is ~360k nodes) on representative
  // instances; the measured diameter must sit between eq. 2 and the
  // algorithmic upper bound.
  for (const NetworkSpec& net :
       {make_macro_star(2, 4), make_complete_rotation_star(4, 2),
        make_macro_rotator(2, 4), make_rotation_is(4, 2),
        make_insertion_selection(9), make_recursive_macro_star(2, 2, 2),
        make_partial_rotation_star(4, 2, {1, 2})}) {
    const DistanceStats s = network_distance_stats(net, false);
    ASSERT_TRUE(s.all_reachable()) << net.name;
    EXPECT_GE(s.eccentricity + 1e-9, universal_lower_bound_for(net)) << net.name;
    EXPECT_LE(s.eccentricity, diameter_upper_bound(net)) << net.name;
  }
}

TEST(PropertySweep, RouterMatchesSampledBfsDistancesAtK9) {
  // Spot-verify stretch: router length >= true distance for sampled pairs,
  // with the true distance taken from a BFS towards the identity.
  for (const NetworkSpec& net :
       {make_macro_star(2, 4), make_complete_rotation_star(4, 2),
        make_macro_rotator(2, 4), make_rotation_is(4, 2)}) {
    const std::uint64_t id = Permutation::identity(9).rank();
    std::vector<std::uint16_t> dist;
    if (net.directed) {
      const NetworkView rview = NetworkView::reverse_of(net);
      dist = bfs_distances(rview, id);
    } else {
      const NetworkView view = NetworkView::of(net);
      dist = bfs_distances(view, id);
    }
    std::mt19937_64 rng(31);
    std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
    const Permutation target = Permutation::identity(9);
    for (int trial = 0; trial < 50; ++trial) {
      const std::uint64_t r = pick(rng);
      EXPECT_GE(route_length(net, Permutation::unrank(9, r), target), dist[r])
          << net.name;
    }
  }
}

TEST(PropertySweep, ClosedFormsEqualBfsDistancesOnEveryNodeToK9) {
  // Each closed form against BFS on every node: Akers–Harel–Krishnamurthy
  // on the star graph (centre position 1) and on MS(l,1), whose generators
  // are the transpositions through position 2; inversions on bubble-sort;
  // k minus the cycles on the transposition network.
  using Formula = int (*)(const Permutation&);
  const Formula star = [](const Permutation& u) {
    return closed_form::star_distance(u);
  };
  const Formula star_centre_2 = [](const Permutation& u) {
    return closed_form::star_distance(u, 2);
  };
  for (int k = 3; k <= 9; ++k) {
    for (const auto& [net, formula] :
         {std::pair{make_star_graph(k), star},
          std::pair{make_macro_star(k - 1, 1), star_centre_2},
          std::pair{make_bubble_sort_graph(k), &closed_form::inversions},
          std::pair{make_transposition_network(k),
                    &closed_form::transposition_distance}}) {
      const NetworkView view = NetworkView::of(net);
      const auto dist = bfs_distances(view, Permutation::identity(k).rank());
      for (std::uint64_t r = 0; r < net.num_nodes(); ++r) {
        const Permutation u = Permutation::unrank(k, r);
        ASSERT_EQ(dist[r], formula(u)) << net.name << " " << u.to_string();
      }
    }
  }
}

TEST(PropertySweep, DegreeTenInstancesRouteCorrectly) {
  // k = 10 (3.6M nodes): routing only, no BFS.
  std::mt19937_64 rng(41);
  for (const NetworkSpec& net :
       {make_macro_star(3, 3), make_complete_rotation_star(3, 3),
        make_macro_rotator(3, 3), make_macro_is(3, 3),
        make_complete_rotation_is(3, 3), make_star_graph(10),
        make_rotator_graph(10)}) {
    std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
    const int bound = diameter_upper_bound(net);
    for (int trial = 0; trial < 20; ++trial) {
      const Permutation from = Permutation::unrank(10, pick(rng));
      const Permutation to = Permutation::unrank(10, pick(rng));
      const auto word = route(net, from, to);
      ASSERT_EQ(check_route(net, from, to, word), "") << net.name;
      ASSERT_LE(static_cast<int>(word.size()), bound) << net.name;
    }
  }
}

TEST(PropertySweep, TwelveSymbolRoutingStaysSound) {
  // Permutation machinery is exercised beyond enumerable sizes: k = 13,
  // N = 6.2e9 — rank/unrank and the solvers must still work.
  std::mt19937_64 rng(53);
  const NetworkSpec net = make_macro_star(4, 3);  // k = 13
  std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
  const int bound = diameter_upper_bound(net);
  for (int trial = 0; trial < 10; ++trial) {
    const Permutation from = Permutation::unrank(13, pick(rng));
    const Permutation to = Permutation::unrank(13, pick(rng));
    const auto word = route(net, from, to);
    ASSERT_EQ(check_route(net, from, to, word), "");
    ASSERT_LE(static_cast<int>(word.size()), bound);
  }
}

}  // namespace
}  // namespace scg
