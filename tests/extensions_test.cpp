// Section 3.3.4 extensions: partial-rotation networks, recursive
// macro-stars, and the improved (greedy-designation) macro-star router.
#include <gtest/gtest.h>

#include <random>
#include <utility>
#include <vector>

#include "analysis/formulas.hpp"
#include "networks/router.hpp"
#include "topology/metrics.hpp"

namespace scg {
namespace {

TEST(PartialRotationStar, DegreeBetweenRSAndCompleteRS) {
  // l = 6, n = 2: RS has degree 4, complete-RS has 7; {1,2,5} gives 5.
  const NetworkSpec p = make_partial_rotation_star(6, 2, {1, 2, 5});
  EXPECT_EQ(p.degree(), 5);
  EXPECT_GT(p.degree(), make_rotation_star(6, 2).degree());
  EXPECT_LT(p.degree(), make_complete_rotation_star(6, 2).degree());
  EXPECT_EQ(p.name, "partial-RS(6,2;R125)");
}

TEST(PartialRotationStar, UndirectedIffRotationSetSymmetric) {
  // {1,2} in Z_5: inverses are 4,3 — not in the set, so directed.
  EXPECT_TRUE(make_partial_rotation_star(5, 1, {1, 2}).directed);
  // {1,4} is inverse-closed; {3} in Z_6 is an involution.
  EXPECT_FALSE(make_partial_rotation_star(5, 1, {1, 4}).directed);
  EXPECT_FALSE(make_partial_rotation_star(6, 1, {3}).directed);
}

TEST(PartialRotationStar, RoutesEveryNodeWithinBound) {
  const NetworkSpec net = make_partial_rotation_star(4, 1, {1, 2});  // k = 5
  const int bound = diameter_upper_bound(net);
  const Permutation target = Permutation::identity(5);
  for (std::uint64_t r = 0; r < net.num_nodes(); ++r) {
    const Permutation u = Permutation::unrank(5, r);
    const auto word = route(net, u, target);
    ASSERT_EQ(check_route(net, u, target, word), "") << u.to_string();
    ASSERT_LE(static_cast<int>(word.size()), bound);
  }
}

TEST(PartialRotationIS, RoutesEveryNodeWithinBound) {
  const NetworkSpec net = make_partial_rotation_is(3, 2, {2});  // R2 generates Z_3
  const int bound = diameter_upper_bound(net);
  const Permutation target = Permutation::identity(7);
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
  for (int trial = 0; trial < 200; ++trial) {
    const Permutation u = Permutation::unrank(7, pick(rng));
    const auto word = route(net, u, target);
    ASSERT_EQ(check_route(net, u, target, word), "") << u.to_string();
    ASSERT_LE(static_cast<int>(word.size()), bound);
  }
}

TEST(PartialRotationStar, NonGeneratingSetIsRejectedAtRouting) {
  const NetworkSpec net = make_partial_rotation_star(6, 1, {2, 4});  // gcd 2
  EXPECT_THROW(
      route(net, Permutation::parse("7123456"), Permutation::identity(7)),
      std::invalid_argument);
}

TEST(PartialRotationStar, RepeatedRotationAmountsRouteLikeTheSet) {
  // A rotation list longer than the solver's fixed arrays, by repetition,
  // plays over the same set: every word equals the set's.
  std::vector<int> repeated(3 * kMaxSymbols, 1);
  repeated.push_back(2);
  const Permutation target = Permutation::identity(7);
  std::mt19937_64 rng(11);
  for (const auto& [net, set] :
       {std::pair{make_partial_rotation_star(3, 2, repeated),
                  make_partial_rotation_star(3, 2, {1, 2})},
        std::pair{make_partial_rotation_is(3, 2, repeated),
                  make_partial_rotation_is(3, 2, {1, 2})}}) {
    std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
    for (int trial = 0; trial < 50; ++trial) {
      const Permutation u = Permutation::unrank(7, pick(rng));
      ASSERT_EQ(route(net, u, target), route(set, u, target)) << net.name;
    }
  }
}

TEST(PartialRotationStar, ConnectivityAndSymmetry) {
  const NetworkSpec net = make_partial_rotation_star(4, 1, {1, 2});
  EXPECT_TRUE(strongly_connected(net));
  const DistanceStats s = network_distance_stats(net, false);
  EXPECT_TRUE(s.all_reachable());
  EXPECT_LE(s.eccentricity, diameter_upper_bound(net));
}

TEST(PartialRotationStar, DiameterInterpolatesBetweenRSAndComplete) {
  // l=5, n=1, k=6 (720 nodes): more rotations => no larger diameter.
  const int d_rs =
      network_distance_stats(make_rotation_star(5, 1), false).eccentricity;
  const int d_partial = network_distance_stats(
                            make_partial_rotation_star(5, 1, {1, 2, 4}), false)
                            .eccentricity;
  const int d_complete =
      network_distance_stats(make_complete_rotation_star(5, 1), false)
          .eccentricity;
  EXPECT_LE(d_complete, d_partial);
  EXPECT_LE(d_partial, d_rs);
}

TEST(RotationShiftWorst, KnownValues) {
  EXPECT_EQ(rotation_shift_worst(5, {1}), 4);
  EXPECT_EQ(rotation_shift_worst(5, {1, 4}), 2);
  EXPECT_EQ(rotation_shift_worst(5, {1, 2, 3, 4}), 1);
  EXPECT_EQ(rotation_shift_worst(6, {2, 3}), 3);  // 1 = 3+2+2 mod 6... BFS: 4=2+2,3,5=2+3,1=2+2+3(3)... max 3
  EXPECT_THROW(rotation_shift_worst(6, {2, 4}), std::invalid_argument);
  EXPECT_THROW(rotation_shift_worst(4, {5}), std::invalid_argument);
}

TEST(RecursiveMacroStar, DegreeSmallerThanFlatMS) {
  // MS(2;2,2): n = 4, k = 9.  Degree 2+1+1 = 4 < MS(2,4)'s 5.
  const NetworkSpec r = make_recursive_macro_star(2, 2, 2);
  EXPECT_EQ(r.k(), 9);
  EXPECT_EQ(r.degree(), 4);
  EXPECT_LT(r.degree(), make_macro_star(2, 4).degree());
  EXPECT_FALSE(r.directed);
  EXPECT_EQ(r.name, "recursive-MS(2;2,2)");
}

TEST(RecursiveMacroStar, RoutesRandomNodesWithinBound) {
  const NetworkSpec net = make_recursive_macro_star(2, 2, 2);  // k = 9
  const int bound = diameter_upper_bound(net);
  const Permutation target = Permutation::identity(9);
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
  for (int trial = 0; trial < 100; ++trial) {
    const Permutation u = Permutation::unrank(9, pick(rng));
    const auto word = route(net, u, target);
    ASSERT_EQ(check_route(net, u, target, word), "") << u.to_string();
    ASSERT_LE(static_cast<int>(word.size()), bound);
  }
}

TEST(RecursiveMacroStar, ConnectedAndRegular) {
  const NetworkSpec net = make_recursive_macro_star(2, 2, 1);  // k = 5
  EXPECT_TRUE(strongly_connected(net));
  const DistanceStats s = network_distance_stats(net, false);
  EXPECT_TRUE(s.all_reachable());
  const Graph g = materialize(net);
  EXPECT_TRUE(g.regular());
}

TEST(GreedyDesignation, SolvesEveryStartNoWorseThanCanonical) {
  const int l = 3;
  const int n = 2;
  const int k = 7;
  bool strictly_better_somewhere = false;
  for (std::uint64_t r = 0; r < factorial(k); r += 7) {  // stride for speed
    const Permutation start = Permutation::unrank(k, r);
    const auto greedy = solve_transposition_game_greedy_designation(start, l, n);
    ASSERT_TRUE(apply_word(start, greedy).is_identity()) << start.to_string();
    const auto canonical =
        solve_transposition_game(start, l, n, BoxMoveStyle::kSwap);
    ASSERT_LE(greedy.size(), canonical.size()) << start.to_string();
    if (greedy.size() < canonical.size()) strictly_better_somewhere = true;
  }
  EXPECT_TRUE(strictly_better_somewhere);
}

TEST(GreedyDesignation, FixesBoxPermutedStatesCheaply) {
  // A pure box swap of the identity is one move under a good designation.
  const Permutation start = swap_boxes(2, 2).applied(Permutation::identity(7));
  const auto word = solve_transposition_game_greedy_designation(start, 3, 2);
  EXPECT_EQ(word.size(), 1u);
}

TEST(ExtensionFormulas, FamilyOnlyQueriesThrow) {
  EXPECT_THROW(closed_form_degree(Family::kPartialRotationStar, 3, 2),
               std::invalid_argument);
  EXPECT_THROW(diameter_upper_bound(Family::kRecursiveMacroStar, 3, 2),
               std::invalid_argument);
  // The instance-aware overload works.
  EXPECT_GT(diameter_upper_bound(make_recursive_macro_star(2, 2, 2)), 0);
  EXPECT_GT(diameter_upper_bound(make_partial_rotation_star(4, 1, {1, 2})), 0);
}

}  // namespace
}  // namespace scg
