// DistanceOracle correctness: the mod-3 table must reproduce BFS distances
// exactly on every small family (undirected AND directed, where the descent
// has to backtrack), optimal routes must be check_route-clean shortest
// paths never longer than the game router's, and the on-disk format must
// round-trip and reject corrupted or mismatched tables.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/oracle_audit.hpp"
#include "networks/router.hpp"
#include "oracle/oracle.hpp"
#include "topology/bfs.hpp"
#include "topology/metrics.hpp"

namespace scg {
namespace {

using Hist = std::vector<std::uint64_t>;

// The oracle stores distances TO the identity (retrograde BFS over the
// reverse view); network_distance_stats measures distances FROM it.  Left
// translation by u^{-1} maps one profile onto the other, so the histograms
// must agree bit-for-bit on every family — directed ones included.
void expect_histogram_matches(const NetworkSpec& net) {
  const DistanceOracle oracle = DistanceOracle::build(net);
  const DistanceStats bfs = network_distance_stats(net, /*parallel=*/false);
  EXPECT_EQ(oracle.histogram(), bfs.histogram) << net.name;
  EXPECT_EQ(oracle.diameter(), bfs.eccentricity) << net.name;
  EXPECT_DOUBLE_EQ(oracle.average_distance(), bfs.average) << net.name;
  EXPECT_EQ(oracle.reachable_states(), bfs.reachable) << net.name;
  EXPECT_EQ(oracle.num_states(), net.num_nodes()) << net.name;
  EXPECT_EQ(oracle_formula_crosscheck(net, oracle), "") << net.name;
}

TEST(Oracle, HistogramGoldenMacroStar) {
  expect_histogram_matches(make_macro_star(2, 2));
}
TEST(Oracle, HistogramGoldenRotationStar) {
  expect_histogram_matches(make_rotation_star(2, 2));
}
TEST(Oracle, HistogramGoldenCompleteRotationStar) {
  expect_histogram_matches(make_complete_rotation_star(3, 2));
}
TEST(Oracle, HistogramGoldenMacroRotator) {
  expect_histogram_matches(make_macro_rotator(2, 2));
}
TEST(Oracle, HistogramGoldenRotationRotator) {
  expect_histogram_matches(make_rotation_rotator(2, 2));
}
TEST(Oracle, HistogramGoldenCompleteRotationRotator) {
  expect_histogram_matches(make_complete_rotation_rotator(3, 2));
}
TEST(Oracle, HistogramGoldenInsertionSelection) {
  expect_histogram_matches(make_insertion_selection(5));
}
TEST(Oracle, HistogramGoldenStarSix) {
  expect_histogram_matches(make_star_graph(6));
}

void expect_all_pairs_exact(const NetworkSpec& net) {
  const DistanceOracle oracle = DistanceOracle::build(net);
  const NetworkView fwd = NetworkView::of(net);
  for (std::uint64_t u = 0; u < net.num_nodes(); ++u) {
    const std::vector<std::uint16_t> dist = bfs_distances(fwd, u);
    for (std::uint64_t v = 0; v < net.num_nodes(); ++v) {
      ASSERT_EQ(oracle.exact_distance(u, v), static_cast<int>(dist[v]))
          << net.name << " d(" << u << "," << v << ")";
    }
  }
}

TEST(Oracle, AllPairsExactUndirected) {
  expect_all_pairs_exact(make_star_graph(5));
}

TEST(Oracle, AllPairsExactDirected) {
  // Directed: the greedy mod-3 step is ambiguous (a candidate neighbor can
  // be d+2 away), so this exercises the backtracking IDDFS descent.
  expect_all_pairs_exact(make_rotation_rotator(2, 2));
}

TEST(Oracle, ResidueIsDistanceMod3) {
  const NetworkSpec net = make_star_graph(5);
  const DistanceOracle oracle = DistanceOracle::build(net);
  const std::vector<std::uint16_t> dist =
      bfs_distances(NetworkView::reverse_of(net),
                    Permutation::identity(net.k()).rank());
  for (std::uint64_t r = 0; r < net.num_nodes(); ++r) {
    EXPECT_EQ(oracle.residue(r), dist[r] % 3);
    EXPECT_EQ(oracle.distance_to_identity(r), static_cast<int>(dist[r]));
  }
}

void expect_optimal_routes(const NetworkSpec& net, std::uint64_t s_stride = 3,
                           std::uint64_t t_stride = 5) {
  const DistanceOracle oracle = DistanceOracle::build(net);
  for (std::uint64_t s = 0; s < net.num_nodes(); s += s_stride) {
    const Permutation from = Permutation::unrank(net.k(), s);
    for (std::uint64_t t = 0; t < net.num_nodes(); t += t_stride) {
      const Permutation to = Permutation::unrank(net.k(), t);
      const std::vector<Generator> word = oracle.optimal_route(from, to);
      ASSERT_EQ(check_route(net, from, to, word), "") << net.name;
      const int exact = oracle.exact_distance(from, to);
      ASSERT_EQ(static_cast<int>(word.size()), exact) << net.name;
      // Never longer than the game router's play.
      ASSERT_LE(word.size(), route(net, from, to).size()) << net.name;
    }
  }
}

TEST(Oracle, RouterOptimalMacroStar) {
  expect_optimal_routes(make_macro_star(2, 2));
}
TEST(Oracle, RouterOptimalDirected) {
  // Directed descent is an IDDFS, so sample pairs (coprime strides cover
  // every residue class of sources and targets) instead of the full sweep.
  expect_optimal_routes(make_complete_rotation_rotator(3, 2), 97, 89);
  expect_optimal_routes(make_rotation_rotator(2, 2));  // 120 nodes, dense
}

TEST(Oracle, OptimalNextHopDescends) {
  const NetworkSpec net = make_complete_rotation_star(2, 2);
  const DistanceOracle oracle = DistanceOracle::build(net);
  const Permutation to = Permutation::identity(net.k());
  for (std::uint64_t s = 0; s < net.num_nodes(); ++s) {
    Permutation u = Permutation::unrank(net.k(), s);
    int d = oracle.exact_distance(u, to);
    while (d > 0) {
      const int tag = oracle.optimal_next_hop(u, to);
      ASSERT_GE(tag, 0);
      net.generators[static_cast<std::size_t>(tag)].apply(u);
      const int nd = oracle.exact_distance(u, to);
      ASSERT_EQ(nd, d - 1);
      d = nd;
    }
    EXPECT_EQ(oracle.optimal_next_hop(u, to), -1);  // arrived
  }
}

TEST(Oracle, RouteAuditFindsGameRouterOptimalOnBubbleSort) {
  // The bubble-sort router is provably optimal (inversion count == graph
  // distance), so the audit must report 100% optimal play.
  const NetworkSpec net = make_bubble_sort_graph(5);
  const DistanceOracle oracle = DistanceOracle::build(net);
  const OptimalityAudit audit = audit_route_optimality(net, oracle);
  EXPECT_EQ(audit.sources, net.num_nodes() - 1);
  EXPECT_EQ(audit.optimal, audit.sources);
  EXPECT_EQ(audit.max_gap, 0);
  EXPECT_DOUBLE_EQ(audit.avg_stretch, 1.0);
}

TEST(Oracle, BackupAuditStretchAtLeastOne) {
  const NetworkSpec net = make_macro_star(2, 2);
  const DistanceOracle oracle = DistanceOracle::build(net);
  const BackupAudit audit = audit_backup_optimality(net, oracle, 16);
  EXPECT_GT(audit.pairs, 0u);
  EXPECT_GE(audit.avg_best_stretch, 1.0);
  EXPECT_GE(audit.max_stretch, audit.avg_stretch);
}

TEST(Oracle, SaveLoadRoundTrip) {
  const NetworkSpec net = make_macro_star(2, 2);
  const DistanceOracle built = DistanceOracle::build(net);
  const std::string path = ::testing::TempDir() + "oracle_roundtrip.bin";
  built.save(path);

  const DistanceOracle loaded = DistanceOracle::load(path, net);
  EXPECT_EQ(loaded.histogram(), built.histogram());
  EXPECT_EQ(loaded.diameter(), built.diameter());
  EXPECT_DOUBLE_EQ(loaded.average_distance(), built.average_distance());
  for (std::uint64_t u = 0; u < net.num_nodes(); u += 7) {
    for (std::uint64_t v = 0; v < net.num_nodes(); v += 11) {
      ASSERT_EQ(loaded.exact_distance(u, v), built.exact_distance(u, v));
    }
  }
  std::remove(path.c_str());
}

TEST(Oracle, LoadRejectsCorruptedHeader) {
  const NetworkSpec net = make_macro_star(2, 2);
  DistanceOracle::build(net).save(::testing::TempDir() + "oracle_corrupt.bin");
  const std::string path = ::testing::TempDir() + "oracle_corrupt.bin";

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 72u);

  {  // flipped magic
    std::string bad = bytes;
    bad[0] ^= 0x5a;
    std::ofstream(path, std::ios::binary).write(bad.data(), static_cast<std::streamsize>(bad.size()));
    EXPECT_THROW(DistanceOracle::load(path, net), std::runtime_error);
  }
  {  // truncated payload
    std::ofstream(path, std::ios::binary)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
    EXPECT_THROW(DistanceOracle::load(path, net), std::runtime_error);
  }
  {  // intact file, wrong network
    std::ofstream(path, std::ios::binary)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    const NetworkSpec other = make_star_graph(5);
    EXPECT_THROW(DistanceOracle::load(path, other), std::runtime_error);
  }
  {  // same shape, tampered generator hash (byte 64 starts the hash field)
    std::string bad = bytes;
    bad[64] ^= 0x01;
    std::ofstream(path, std::ios::binary).write(bad.data(), static_cast<std::streamsize>(bad.size()));
    EXPECT_THROW(DistanceOracle::load(path, net), std::runtime_error);
  }
  std::remove(path.c_str());
}

TEST(Oracle, RejectsOversizedNetwork) {
  const NetworkSpec net = make_star_graph(13);  // 13! states: over the limit
  EXPECT_THROW(DistanceOracle::build(net), std::invalid_argument);
}

}  // namespace
}  // namespace scg
