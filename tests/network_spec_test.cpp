// Definitions 3.5-3.13: generator sets, degrees, directedness and cluster
// structure of every network class, cross-checked against the closed forms.
#include <gtest/gtest.h>

#include <map>

#include "analysis/formulas.hpp"
#include "networks/super_cayley.hpp"

namespace scg {
namespace {

struct LN {
  int l;
  int n;
};

const LN kGrid[] = {{2, 1}, {2, 2}, {2, 3}, {2, 4}, {3, 1}, {3, 2},
                    {3, 3}, {4, 1}, {4, 2}, {5, 1}, {5, 2}, {6, 2}};

using Maker = NetworkSpec (*)(int, int);

struct FamilyCase {
  Family family;
  Maker make;
  bool directed;
};

const FamilyCase kFamilies[] = {
    {Family::kMacroStar, make_macro_star, false},
    {Family::kRotationStar, make_rotation_star, false},
    {Family::kCompleteRotationStar, make_complete_rotation_star, false},
    {Family::kMacroRotator, make_macro_rotator, true},
    {Family::kRotationRotator, make_rotation_rotator, true},
    {Family::kCompleteRotationRotator, make_complete_rotation_rotator, true},
    {Family::kMacroIS, make_macro_is, false},
    {Family::kRotationIS, make_rotation_is, false},
    {Family::kCompleteRotationIS, make_complete_rotation_is, false},
};

class FamilyGrid : public testing::TestWithParam<FamilyCase> {};

TEST_P(FamilyGrid, DegreeMatchesClosedForm) {
  const FamilyCase c = GetParam();
  for (const LN& p : kGrid) {
    const NetworkSpec net = c.make(p.l, p.n);
    EXPECT_EQ(net.degree(), closed_form_degree(c.family, p.l, p.n))
        << net.name;
    EXPECT_EQ(net.k(), p.n * p.l + 1);
    EXPECT_EQ(net.num_nodes(), factorial(p.n * p.l + 1));
  }
}

TEST_P(FamilyGrid, DirectednessMatchesInverseClosure) {
  const FamilyCase c = GetParam();
  for (const LN& p : kGrid) {
    const NetworkSpec net = c.make(p.l, p.n);
    // directedness is exactly non-closure of the generator set.
    EXPECT_EQ(net.directed,
              !is_inverse_closed(net.generators, net.l, net.k()))
        << net.name;
    if (!c.directed) {
      // Undirected families are never directed.
      EXPECT_FALSE(net.directed) << net.name;
    } else if (p.n >= 2) {
      // Rotator-based families are genuinely directed once boxes hold at
      // least two balls (I_3 has no inverse in the set).
      EXPECT_TRUE(net.directed) << net.name;
    }
  }
}

TEST_P(FamilyGrid, GeneratorsAreDistinctPermutations) {
  const FamilyCase c = GetParam();
  for (const LN& p : kGrid) {
    const NetworkSpec net = c.make(p.l, p.n);
    std::vector<Permutation> images;
    for (const Generator& g : net.generators) {
      images.push_back(g.as_position_permutation(net.k()));
      EXPECT_FALSE(images.back().is_identity()) << net.name << " " << g.name();
    }
    for (std::size_t i = 0; i < images.size(); ++i) {
      for (std::size_t j = i + 1; j < images.size(); ++j) {
        EXPECT_NE(images[i], images[j])
            << net.name << ": duplicate generators " << i << "," << j;
      }
    }
  }
}

TEST_P(FamilyGrid, InterclusterPlusNucleusEqualsDegree) {
  const FamilyCase c = GetParam();
  for (const LN& p : kGrid) {
    const NetworkSpec net = c.make(p.l, p.n);
    EXPECT_EQ(net.intercluster_degree() + net.nucleus_degree(), net.degree());
    EXPECT_EQ(net.cluster_size(), factorial(p.n + 1));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, FamilyGrid, testing::ValuesIn(kFamilies),
    [](const testing::TestParamInfo<FamilyCase>& info) {
      std::string s = family_name(info.param.family);
      for (char& ch : s) {
        if (ch == '-') ch = '_';
      }
      return s;
    });

TEST(MacroStar, GeneratorsMatchDefinition) {
  const NetworkSpec net = make_macro_star(3, 2);  // k = 7
  // n = 2 transpositions T2, T3; l-1 = 2 swaps S2, S3.
  ASSERT_EQ(net.generators.size(), 4u);
  EXPECT_EQ(net.generators[0], transposition(2));
  EXPECT_EQ(net.generators[1], transposition(3));
  EXPECT_EQ(net.generators[2], swap_boxes(2, 2));
  EXPECT_EQ(net.generators[3], swap_boxes(3, 2));
  EXPECT_EQ(net.name, "MS(3,2)");
}

TEST(RotationStar, HasPlusMinusRotations) {
  const NetworkSpec net = make_rotation_star(4, 2);
  ASSERT_EQ(net.generators.size(), 4u);  // T2, T3, R1, R3
  EXPECT_EQ(net.generators[2], rotation(1, 2));
  EXPECT_EQ(net.generators[3], rotation(3, 2));
  // l = 2: R1 == R^{l-1}, a single rotation generator.
  EXPECT_EQ(make_rotation_star(2, 2).degree(), 3);
}

TEST(CompleteRotationStar, HasAllRotations) {
  const NetworkSpec net = make_complete_rotation_star(4, 1);  // k = 5
  ASSERT_EQ(net.generators.size(), 4u);  // T2, R1, R2, R3
  EXPECT_EQ(net.generators[1], rotation(1, 1));
  EXPECT_EQ(net.generators[2], rotation(2, 1));
  EXPECT_EQ(net.generators[3], rotation(3, 1));
}

TEST(InsertionSelection, DeduplicatesI2) {
  // Definition 3.10 lists I_2..I_k and I_2^{-1}..I_k^{-1}; I_2 == I_2^{-1}.
  const NetworkSpec net = make_insertion_selection(5);
  EXPECT_EQ(net.degree(), 2 * 5 - 3);
  int selections = 0;
  for (const Generator& g : net.generators) {
    if (g.kind == GenKind::kSelection) ++selections;
  }
  EXPECT_EQ(selections, 3);  // I3', I4', I5' (I2' deduped against I2)
}

TEST(MacroRotator, IsDirectedWithInsertions) {
  const NetworkSpec net = make_macro_rotator(2, 3);
  EXPECT_TRUE(net.directed);
  EXPECT_EQ(net.degree(), 4);  // I2, I3, I4, S2
  for (const Generator& g : net.generators) {
    EXPECT_TRUE(g.kind == GenKind::kInsertion || g.kind == GenKind::kSwap);
  }
}

TEST(RotationRotator, SingleRotation) {
  const NetworkSpec net = make_rotation_rotator(5, 2);
  EXPECT_EQ(net.degree(), 3);  // I2, I3, R1
  EXPECT_EQ(net.intercluster_degree(), 1);
}

TEST(Baselines, StarAndRotatorAndFriends) {
  EXPECT_EQ(make_star_graph(7).degree(), 6);
  EXPECT_FALSE(make_star_graph(7).directed);
  EXPECT_EQ(make_rotator_graph(7).degree(), 6);
  EXPECT_TRUE(make_rotator_graph(7).directed);
  EXPECT_EQ(make_bubble_sort_graph(7).degree(), 6);
  EXPECT_EQ(make_transposition_network(7).degree(), 21);
  EXPECT_FALSE(make_transposition_network(7).directed);
}

TEST(ClusterOf, NucleusMovesPreserveCluster) {
  const NetworkSpec net = make_macro_star(3, 2);
  const Permutation u = Permutation::parse("5342671");
  const std::uint64_t cluster = net.cluster_of(u);
  // Nucleus generators (T2, T3) keep the trailing symbols fixed.
  EXPECT_EQ(net.cluster_of(transposition(2).applied(u)), cluster);
  EXPECT_EQ(net.cluster_of(transposition(3).applied(u)), cluster);
  // Super generators change the cluster.
  EXPECT_NE(net.cluster_of(swap_boxes(2, 2).applied(u)), cluster);
}

TEST(ClusterOf, PartitionsNodesEvenly) {
  const NetworkSpec net = make_macro_star(2, 2);  // k=5, clusters of 3! = 6
  std::map<std::uint64_t, int> sizes;
  for (std::uint64_t r = 0; r < net.num_nodes(); ++r) {
    ++sizes[net.cluster_of(Permutation::unrank(net.k(), r))];
  }
  EXPECT_EQ(sizes.size(), net.num_nodes() / net.cluster_size());
  for (const auto& [id, size] : sizes) {
    EXPECT_EQ(size, static_cast<int>(net.cluster_size()));
  }
}

TEST(AllSuperCayley, ReturnsTenClassesForLGe2) {
  const std::vector<NetworkSpec> nets = all_super_cayley(3, 2);
  EXPECT_EQ(nets.size(), 10u);
  for (const NetworkSpec& net : nets) {
    EXPECT_EQ(net.k(), 7) << net.name;
  }
}

TEST(AllSuperCayley, OneBoxDegenerates) {
  // l = 1: only the rotation-free families exist (MS, MR, IS, MIS).
  const std::vector<NetworkSpec> nets = all_super_cayley(1, 4);
  EXPECT_EQ(nets.size(), 4u);
}

TEST(FamilyNames, AreStable) {
  EXPECT_EQ(family_name(Family::kMacroStar), "MS");
  EXPECT_EQ(family_name(Family::kCompleteRotationIS), "complete-RIS");
  EXPECT_EQ(family_name(Family::kStar), "star");
  EXPECT_EQ(make_complete_rotation_is(3, 2).name, "complete-RIS(3,2)");
  EXPECT_EQ(make_insertion_selection(7).name, "IS(7)");
}

TEST(Factories, RejectBadParameters) {
  EXPECT_THROW(make_macro_star(0, 2), std::invalid_argument);
  EXPECT_THROW(make_rotation_star(1, 2), std::invalid_argument);
  EXPECT_THROW(make_complete_rotation_star(1, 2), std::invalid_argument);
  EXPECT_THROW(make_rotation_rotator(1, 3), std::invalid_argument);
  EXPECT_THROW(make_insertion_selection(1), std::invalid_argument);
}

TEST(Factories, RejectMoreThanMaxSymbols) {
  // k = 21 = l*n+1 with (l, n) = (4, 5) or (2, 10), one past kMaxSymbols.
  EXPECT_THROW(make_macro_star(4, 5), std::invalid_argument);
  EXPECT_THROW(make_rotation_star(4, 5), std::invalid_argument);
  EXPECT_THROW(make_complete_rotation_star(4, 5), std::invalid_argument);
  EXPECT_THROW(make_macro_rotator(4, 5), std::invalid_argument);
  EXPECT_THROW(make_rotation_rotator(4, 5), std::invalid_argument);
  EXPECT_THROW(make_complete_rotation_rotator(4, 5), std::invalid_argument);
  EXPECT_THROW(make_insertion_selection(21), std::invalid_argument);
  EXPECT_THROW(make_macro_is(4, 5), std::invalid_argument);
  EXPECT_THROW(make_rotation_is(4, 5), std::invalid_argument);
  EXPECT_THROW(make_complete_rotation_is(4, 5), std::invalid_argument);
  EXPECT_THROW(make_star_graph(21), std::invalid_argument);
  EXPECT_THROW(make_rotator_graph(21), std::invalid_argument);
  EXPECT_THROW(make_bubble_sort_graph(21), std::invalid_argument);
  EXPECT_THROW(make_transposition_network(21), std::invalid_argument);
  EXPECT_THROW(make_pancake_graph(21), std::invalid_argument);
  EXPECT_THROW(make_partial_rotation_star(4, 5, {1}), std::invalid_argument);
  EXPECT_THROW(make_partial_rotation_is(4, 5, {1}), std::invalid_argument);
  EXPECT_THROW(make_recursive_macro_star(2, 2, 5), std::invalid_argument);
  // Products that overflow int are rejected, not wrapped.
  EXPECT_THROW(make_macro_star(1 << 16, 1 << 16), std::invalid_argument);
}

TEST(Theorem44, BalancedSplitMinimisesDegree) {
  // k - 1 = 12: splits (3,4)/(4,3) give degree 6, beating (2,6)/(6,2) = 7
  // and (1,12)/(12,1) = 12.
  const auto splits = degree_optimal_splits(Family::kMacroStar, 13);
  ASSERT_FALSE(splits.empty());
  EXPECT_EQ(splits.front().degree, 6);
  EXPECT_TRUE((splits.front().l == 3 && splits.front().n == 4) ||
              (splits.front().l == 4 && splits.front().n == 3));
  EXPECT_EQ(splits.back().degree, 12);
}

}  // namespace
}  // namespace scg
