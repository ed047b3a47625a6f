// Routing = playing the game (Section 3): path validity, bound compliance
// and comparison with exact BFS distances for every network class.
#include <gtest/gtest.h>

#include <random>

#include "analysis/formulas.hpp"
#include "closed_forms.hpp"
#include "networks/route_engine.hpp"
#include "networks/router.hpp"
#include "topology/metrics.hpp"

namespace scg {
namespace {

std::vector<NetworkSpec> routed_networks() {
  std::vector<NetworkSpec> nets = all_super_cayley(3, 2);
  nets.push_back(make_star_graph(7));
  nets.push_back(make_rotator_graph(7));
  nets.push_back(make_bubble_sort_graph(7));
  nets.push_back(make_transposition_network(7));
  return nets;
}

class RouterAll : public testing::TestWithParam<int> {};

TEST(Router, RandomPairsRouteValidly) {
  std::mt19937_64 rng(23);
  for (const NetworkSpec& net : routed_networks()) {
    std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
    const int bound = diameter_upper_bound(net.family, net.l, net.n);
    for (int trial = 0; trial < 40; ++trial) {
      const Permutation from = Permutation::unrank(net.k(), pick(rng));
      const Permutation to = Permutation::unrank(net.k(), pick(rng));
      const std::vector<Generator> word = route(net, from, to);
      EXPECT_EQ(check_route(net, from, to, word), "") << net.name;
      EXPECT_LE(static_cast<int>(word.size()), bound) << net.name;
    }
  }
}

TEST(Router, SelfRouteIsEmpty) {
  for (const NetworkSpec& net : routed_networks()) {
    const Permutation u = Permutation::unrank(net.k(), 1234 % net.num_nodes());
    EXPECT_TRUE(route(net, u, u).empty()) << net.name;
    EXPECT_EQ(route_length(net, u, u), 0) << net.name;
  }
}

TEST(Router, NeverBeatsBfsDistance) {
  // The solver word is a real path, so its length >= the true distance.
  std::mt19937_64 rng(31);
  for (const NetworkSpec& net : all_super_cayley(2, 2)) {
    const NetworkView view = NetworkView::of(net);
    const NetworkView rview = NetworkView::reverse_of(net);
    const std::uint64_t id = Permutation::identity(net.k()).rank();
    // Distances *to* the identity: reverse BFS for directed graphs.
    const auto dist = net.directed ? bfs_distances(rview, id)
                                   : bfs_distances(view, id);
    const Permutation target = Permutation::identity(net.k());
    for (std::uint64_t r = 0; r < net.num_nodes(); ++r) {
      const Permutation u = Permutation::unrank(net.k(), r);
      EXPECT_GE(route_length(net, u, target), dist[r])
          << net.name << " from " << u.to_string();
    }
  }
}

TEST(Router, StarRouterIsExactlyOptimal) {
  // The Akers-Harel-Krishnamurthy algorithm is distance-optimal on stars.
  const NetworkSpec net = make_star_graph(6);
  const NetworkView view = NetworkView::of(net);
  const std::uint64_t id = Permutation::identity(6).rank();
  const auto dist = bfs_distances(view, id);
  const Permutation target = Permutation::identity(6);
  for (std::uint64_t r = 0; r < net.num_nodes(); ++r) {
    EXPECT_EQ(route_length(net, Permutation::unrank(6, r), target), dist[r]);
  }
}

TEST(Router, RotatorRouterIsExactlyOptimal) {
  const NetworkSpec net = make_rotator_graph(6);
  const NetworkView rview = NetworkView::reverse_of(net);
  const std::uint64_t id = Permutation::identity(6).rank();
  const auto dist = bfs_distances(rview, id);
  const Permutation target = Permutation::identity(6);
  for (std::uint64_t r = 0; r < net.num_nodes(); ++r) {
    EXPECT_EQ(route_length(net, Permutation::unrank(6, r), target), dist[r]);
  }
}

/// Sampled closed-form checks: 2,000 random permutations for every
/// k = 5..20, far past what BFS or the oracle can enumerate.  `make(k)`
/// builds the network and `check(net, u)` tests routing u to the identity.
template <typename Make, typename Check>
void for_sampled_permutations_to_k20(std::uint64_t seed, Make&& make,
                                     Check&& check) {
  std::mt19937_64 rng(seed);
  for (int k = 5; k <= 20; ++k) {
    const NetworkSpec net = make(k);
    std::uniform_int_distribution<std::uint64_t> pick(0, factorial(k) - 1);
    for (int trial = 0; trial < 2000; ++trial) {
      check(net, Permutation::unrank(k, pick(rng)));
      if (testing::Test::HasFailure()) return;
    }
  }
}

int length_to_identity(const NetworkSpec& net, const Permutation& u) {
  return route_length(net, u, Permutation::identity(net.k()));
}

TEST(Router, BubbleSortDistanceEqualsInversions) {
  for_sampled_permutations_to_k20(
      5, make_bubble_sort_graph,
      [](const NetworkSpec& net, const Permutation& u) {
        ASSERT_EQ(length_to_identity(net, u), closed_form::inversions(u))
            << net.name << " " << u.to_string();
      });
}

TEST(Router, TranspositionNetworkDistanceEqualsKMinusCycles) {
  for_sampled_permutations_to_k20(
      6, make_transposition_network,
      [](const NetworkSpec& net, const Permutation& u) {
        ASSERT_EQ(length_to_identity(net, u),
                  closed_form::transposition_distance(u))
            << net.name << " " << u.to_string();
      });
}

TEST(Router, StarRouteLengthEqualsAkersHarelKrishnamurthyToK20) {
  for_sampled_permutations_to_k20(
      7, make_star_graph, [](const NetworkSpec& net, const Permutation& u) {
        ASSERT_EQ(length_to_identity(net, u), closed_form::star_distance(u))
            << net.name << " " << u.to_string();
      });
}

TEST(Router, MacroStarWithOneBallPerBoxIsBracketedByTheStarFormula) {
  // MS(l,1)'s generators T_2, S_2..S_l are exactly the transpositions
  // through position 2: it is the star graph on l+1 symbols centred at
  // position 2, so the formula is its exact distance.  The box-by-box play
  // is not optimal there; it must still stay within its own word bound.
  for_sampled_permutations_to_k20(
      8, [](int k) { return make_macro_star(k - 1, 1); },
      [](const NetworkSpec& net, const Permutation& u) {
        const int routed = length_to_identity(net, u);
        ASSERT_GE(routed, closed_form::star_distance(u, 2))
            << net.name << " " << u.to_string();
        ASSERT_LE(routed, route_word_bound(net))
            << net.name << " " << u.to_string();
      });
}

TEST(Router, DirectedWordsUseOnlyForwardGenerators) {
  // MR/RR words must never contain selections (they are not generators).
  std::mt19937_64 rng(9);
  for (const NetworkSpec& net :
       {make_macro_rotator(3, 2), make_rotation_rotator(3, 2),
        make_complete_rotation_rotator(3, 2)}) {
    std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
    for (int trial = 0; trial < 30; ++trial) {
      const Permutation u = Permutation::unrank(net.k(), pick(rng));
      for (const Generator& g :
           route(net, u, Permutation::identity(net.k()))) {
        EXPECT_NE(g.kind, GenKind::kSelection) << net.name;
        EXPECT_NE(g.kind, GenKind::kTransposition) << net.name;
      }
    }
  }
}

TEST(Router, TranslationInvariance) {
  // route(u, v) and route(x∘u, x∘v) must be the same word (left translation
  // is an automorphism of right Cayley graphs).
  const NetworkSpec net = make_complete_rotation_star(3, 2);
  std::mt19937_64 rng(13);
  std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
  for (int trial = 0; trial < 20; ++trial) {
    const Permutation u = Permutation::unrank(7, pick(rng));
    const Permutation v = Permutation::unrank(7, pick(rng));
    const Permutation x = Permutation::unrank(7, pick(rng));
    const auto w1 = route(net, u, v);
    const auto w2 = route(net, u.relabel_symbols(x), v.relabel_symbols(x));
    EXPECT_EQ(w1.size(), w2.size());
    for (std::size_t i = 0; i < std::min(w1.size(), w2.size()); ++i) {
      EXPECT_EQ(w1[i], w2[i]);
    }
  }
}

TEST(Router, RouteTraceMatchesWord) {
  const NetworkSpec net = make_macro_is(2, 3);
  const Permutation from = Permutation::parse("5342671");
  const Permutation to = Permutation::parse("1234567");
  const GameTrace t = route_trace(net, from, to);
  EXPECT_EQ(t.start, from);
  EXPECT_EQ(t.final_state(), to);
  EXPECT_EQ(validate_trace(net.game(), t), "");
}

TEST(Router, ChecksCatchBadRoutes) {
  const NetworkSpec net = make_macro_star(2, 2);
  const Permutation from = Permutation::parse("21345");
  const Permutation to = Permutation::identity(5);
  // Wrong destination.
  EXPECT_NE(check_route(net, from, to, {}), "");
  // Illegal generator.
  EXPECT_NE(check_route(net, from, to, {rotation(1, 2)}), "");
  // Correct single hop.
  EXPECT_EQ(check_route(net, from, to, {transposition(2)}), "");
}

TEST(Router, SizeMismatchThrows) {
  const NetworkSpec net = make_macro_star(2, 2);  // k = 5
  EXPECT_THROW(route(net, Permutation::identity(6), Permutation::identity(6)),
               std::invalid_argument);
}

}  // namespace
}  // namespace scg
