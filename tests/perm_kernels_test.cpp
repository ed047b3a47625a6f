// Differential fuzz for the batch permutation kernels: every primitive, on
// every tier this binary+CPU supports, byte-identical to the scalar
// Permutation reference for all k in 2..20 and awkward batch sizes (tails
// that are not a multiple of any vector width).  Then the consumer-level
// identities the kernels must preserve end to end: route words on all
// eleven families, an oracle table, and a full EventSimResult, each equal
// under the scalar tier and the best tier.
#include "core/perm_kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <random>
#include <vector>

#include "core/permutation.hpp"
#include "networks/route_engine.hpp"
#include "networks/route_policy.hpp"
#include "oracle/oracle.hpp"
#include "sim/event_core.hpp"
#include "sim/workloads.hpp"
#include "topology/metrics.hpp"

namespace scg {
namespace {

using perm_kernels::inverse;
using perm_kernels::rank;
using perm_kernels::relabel;
using perm_kernels::unrank;

/// Restores the startup tier when a test body returns or fails.
class TierGuard {
 public:
  explicit TierGuard(KernelTier t) : prev_(active_kernel_tier()) {
    EXPECT_TRUE(set_active_kernel_tier(t)) << kernel_tier_name(t);
  }
  ~TierGuard() { set_active_kernel_tier(prev_); }

 private:
  KernelTier prev_;
};

/// Batch sizes straddling every vector width: below, at, and past the
/// 2-lane AVX2 shuffle step and the 4-lane fused unrank groups, odd and
/// even.
const std::size_t kSizes[] = {1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 64, 101};

Permutation random_perm(int k, std::mt19937_64& rng) {
  std::vector<std::uint8_t> sym(static_cast<std::size_t>(k));
  std::iota(sym.begin(), sym.end(), std::uint8_t{1});
  std::shuffle(sym.begin(), sym.end(), rng);
  return Permutation::from_symbols(sym);
}

std::vector<Permutation> fill_random(PermBlock& block, int k, std::size_t n,
                                     std::mt19937_64& rng) {
  block.resize(k, n);
  std::vector<Permutation> ref;
  ref.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ref.push_back(random_perm(k, rng));
    block.set(i, ref.back());
  }
  return ref;
}

/// Every output lane must be the reference permutation in bytes [0, k) AND
/// keep the identity continuation in the padding — padding corruption would
/// poison any later full-width shuffle.
void expect_lane_is(const PermBlock& block, std::size_t i,
                    const Permutation& want, const char* what) {
  const std::uint8_t* lane = block.lane(i);
  for (int p = 0; p < block.k(); ++p) {
    ASSERT_EQ(lane[p], want[p] - 1) << what << " lane " << i << " pos " << p;
  }
  for (std::size_t p = static_cast<std::size_t>(block.k());
       p < block.stride(); ++p) {
    ASSERT_EQ(lane[p], p) << what << " padding, lane " << i;
  }
}

// ---------------------------------------------------------------------------
// Tier plumbing
// ---------------------------------------------------------------------------

TEST(KernelTiers, ReportingAndOverride) {
  const std::vector<KernelTier> tiers = supported_kernel_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), KernelTier::kScalar);
  bool saw_active = false;
  for (const KernelTier t : tiers) {
    EXPECT_STRNE(kernel_tier_name(t), "?");
    saw_active |= (t == active_kernel_tier());
  }
  EXPECT_TRUE(saw_active);
#if defined(__x86_64__) || defined(__i386__)
  // x86 CI hosts all have SSSE3+SSE4.1; the differential sweeps below must
  // not silently degenerate to scalar-vs-scalar there.
  EXPECT_GE(tiers.size(), 2u);
#endif
}

TEST(KernelTiers, UnsupportedOverrideRefusedAndHarmless) {
  const KernelTier before = active_kernel_tier();
  const std::vector<KernelTier> tiers = supported_kernel_tiers();
  for (const KernelTier t :
       {KernelTier::kScalar, KernelTier::kSse, KernelTier::kAvx2}) {
    const bool supported =
        std::find(tiers.begin(), tiers.end(), t) != tiers.end();
    EXPECT_EQ(set_active_kernel_tier(t), supported);
    set_active_kernel_tier(before);
  }
  EXPECT_EQ(active_kernel_tier(), before);
}

TEST(PermBlock, SetGetRoundTripAndLaneLayout) {
  std::mt19937_64 rng(1);
  for (const int k : {1, 2, 9, 16, 17, 20}) {
    PermBlock block;
    const std::vector<Permutation> ref = fill_random(block, k, 5, rng);
    EXPECT_EQ(block.stride(), k <= 16 ? 16u : 32u);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      expect_lane_is(block, i, ref[i], "set");
      EXPECT_EQ(block.get(i), ref[i]);
    }
  }
}

TEST(PermBlock, ResizeReusesCapacity) {
  PermBlock block;
  block.resize(16, 256);
  const std::uint8_t* before = block.data();
  block.resize(9, 100);
  EXPECT_EQ(block.data(), before);
  EXPECT_EQ(block.size(), 100u);
  EXPECT_EQ(block.k(), 9);
}

TEST(PermLane, TableAndPermBuildersAgree) {
  std::mt19937_64 rng(2);
  for (const int k : {3, 16, 20}) {
    const Permutation p = random_perm(k, rng);
    std::vector<std::uint8_t> tab(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) {
      tab[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(p[i] - 1);
    }
    const PermLane a = make_perm_lane(p);
    const PermLane b = make_table_lane(tab.data(), k);
    EXPECT_EQ(std::memcmp(a.b, b.b, kPermLaneBytes), 0);
    for (int i = k; i < kPermLaneBytes; ++i) EXPECT_EQ(a.b[i], i);
  }
}

// ---------------------------------------------------------------------------
// Differential fuzz: every tier vs the Permutation reference
// ---------------------------------------------------------------------------

class KernelDifferential : public ::testing::TestWithParam<KernelTier> {};

TEST_P(KernelDifferential, ShuffleFamilyMatchesPermutationOps) {
  const TierGuard guard(GetParam());
  std::mt19937_64 rng(1234);
  PermBlock a, b, out;
  for (int k = 2; k <= kMaxSymbols; ++k) {
    for (const std::size_t n : kSizes) {
      const std::vector<Permutation> ra = fill_random(a, k, n, rng);
      const std::vector<Permutation> rb = fill_random(b, k, n, rng);
      relabel(a, b, out);
      for (std::size_t i = 0; i < n; ++i) {
        expect_lane_is(out, i, ra[i].relabel_symbols(rb[i]), "relabel");
      }
    }
  }
}

TEST_P(KernelDifferential, ShuffleKernelsAreAliasSafe) {
  const TierGuard guard(GetParam());
  std::mt19937_64 rng(77);
  PermBlock a, b, expect;
  for (const int k : {9, 16, 20}) {
    for (const std::size_t n : {std::size_t{7}, std::size_t{32}}) {
      const std::vector<Permutation> ra = fill_random(a, k, n, rng);
      fill_random(b, k, n, rng);
      relabel(a, b, expect);
      relabel(a, b, a);  // out aliases the relabeled operand
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::memcmp(a.lane(i), expect.lane(i), a.stride()), 0)
            << "relabel into a, k=" << k << " lane " << i;
      }
      for (std::size_t i = 0; i < n; ++i) a.set(i, ra[i]);
      relabel(a, b, b);  // out aliases the relabeling operand
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::memcmp(b.lane(i), expect.lane(i), b.stride()), 0)
            << "relabel into b, k=" << k << " lane " << i;
      }
    }
  }
}

TEST(KernelInputs, RelabelRejectsMismatchedBlocks) {
  PermBlock a, b, out;
  a.resize(9, 8);
  b.resize(10, 8);
  EXPECT_THROW(relabel(a, b, out), std::invalid_argument);
  b.resize(9, 7);
  EXPECT_THROW(relabel(a, b, out), std::invalid_argument);
}

TEST(KernelInputs, RankRejectsWrongOutputLength) {
  PermBlock a;
  a.resize(9, 8);
  std::vector<std::uint64_t> out(7);
  EXPECT_THROW(rank(a, std::span<std::uint64_t>(out)), std::invalid_argument);
}

TEST_P(KernelDifferential, InverseMatchesAndRejectsAliasing) {
  const TierGuard guard(GetParam());
  std::mt19937_64 rng(4321);
  PermBlock a, out;
  for (int k = 2; k <= kMaxSymbols; ++k) {
    for (const std::size_t n : kSizes) {
      const std::vector<Permutation> ra = fill_random(a, k, n, rng);
      inverse(a, out);
      for (std::size_t i = 0; i < n; ++i) {
        expect_lane_is(out, i, ra[i].inverse(), "inverse");
      }
    }
  }
  EXPECT_THROW(inverse(a, a), std::invalid_argument);
}

TEST_P(KernelDifferential, UnrankRankMatchScalar) {
  const TierGuard guard(GetParam());
  std::mt19937_64 rng(99);
  PermBlock block;
  std::vector<std::uint64_t> ranks, got;
  for (int k = 2; k <= kMaxSymbols; ++k) {
    std::uniform_int_distribution<std::uint64_t> pick(0, factorial(k) - 1);
    for (const std::size_t n : kSizes) {
      ranks.resize(n);
      for (std::uint64_t& r : ranks) r = pick(rng);
      unrank(k, ranks, block);
      for (std::size_t i = 0; i < n; ++i) {
        expect_lane_is(block, i, Permutation::unrank(k, ranks[i]), "unrank");
      }
      got.resize(n);
      rank(block, std::span<std::uint64_t>(got));
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], ranks[i]) << "rank, k=" << k << " lane " << i;
      }
    }
  }
}

TEST_P(KernelDifferential, RelativePermutationPipelineMatchesScalarKeying) {
  // The route-cache key of a whole batch: W = U.relabel_symbols(V^{-1}),
  // rank(W) — the exact chain RouteEngine runs per request, batched.
  const TierGuard guard(GetParam());
  std::mt19937_64 rng(2024);
  PermBlock src, dst, inv_dst, w;
  std::vector<std::uint64_t> keys;
  for (const int k : {5, 9, 13, 16, 17, 20}) {
    const std::size_t n = 65;
    const std::vector<Permutation> us = fill_random(src, k, n, rng);
    const std::vector<Permutation> vs = fill_random(dst, k, n, rng);
    inverse(dst, inv_dst);
    relabel(src, inv_dst, w);
    keys.resize(n);
    rank(w, std::span<std::uint64_t>(keys));
    for (std::size_t i = 0; i < n; ++i) {
      const Permutation ref = us[i].relabel_symbols(vs[i].inverse());
      expect_lane_is(w, i, ref, "relative");
      ASSERT_EQ(keys[i], ref.rank()) << "key, k=" << k << " lane " << i;
    }
  }
}

TEST_P(KernelDifferential, SingleLaneHelpersMatchBlockKernels) {
  const TierGuard guard(GetParam());
  std::mt19937_64 rng(555);
  for (const int k : {2, 9, 16, 17, 20}) {
    std::uniform_int_distribution<std::uint64_t> pick(0, factorial(k) - 1);
    const int stride = k <= 16 ? 16 : kPermLaneBytes;
    for (int trial = 0; trial < 50; ++trial) {
      const std::uint64_t r = pick(rng);
      alignas(kPermLaneBytes) std::uint8_t lane[kPermLaneBytes];
      perm_kernels::unrank_lane(k, r, lane);
      const Permutation want = Permutation::unrank(k, r);
      for (int p = 0; p < k; ++p) ASSERT_EQ(lane[p], want[p] - 1);
      for (int p = k; p < kPermLaneBytes; ++p) ASSERT_EQ(lane[p], p);
      ASSERT_EQ(perm_kernels::rank_lane(lane, k), r);

      const Permutation g = random_perm(k, rng);
      perm_kernels::apply_table_lane(lane, make_perm_lane(g), stride);
      const Permutation moved = want.compose_positions(g);
      for (int p = 0; p < k; ++p) ASSERT_EQ(lane[p], moved[p] - 1);
      ASSERT_EQ(perm_kernels::rank_lane(lane, k), moved.rank());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSupportedTiers, KernelDifferential,
    ::testing::ValuesIn(supported_kernel_tiers()),
    [](const ::testing::TestParamInfo<KernelTier>& info) {
      switch (info.param) {
        case KernelTier::kScalar:
          return "scalar";
        case KernelTier::kSse:
          return "sse";
        case KernelTier::kAvx2:
          return "avx2";
      }
      return "unknown";
    });

// ---------------------------------------------------------------------------
// End-to-end tier identity: the rewired consumers must produce exactly the
// same artifacts whichever tier dispatches underneath.
// ---------------------------------------------------------------------------

std::vector<NetworkSpec> all_families() {
  std::vector<NetworkSpec> nets;
  nets.push_back(make_star_graph(7));
  nets.push_back(make_macro_star(2, 3));
  nets.push_back(make_macro_star(3, 2));
  nets.push_back(make_complete_rotation_star(3, 2));
  nets.push_back(make_macro_rotator(3, 2));
  nets.push_back(make_macro_is(3, 2));
  nets.push_back(make_rotation_is(3, 2));
  nets.push_back(make_insertion_selection(7));
  nets.push_back(make_rotator_graph(7));
  nets.push_back(make_bubble_sort_graph(7));
  nets.push_back(make_transposition_network(7));
  return nets;
}

struct Routed {
  std::vector<Generator> words;  // concatenated
  std::vector<int> lengths;
};

Routed route_all(const NetworkSpec& net, KernelTier tier) {
  const TierGuard guard(tier);
  std::mt19937_64 rng(31);
  std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
  std::vector<std::uint64_t> src(500), dst(500);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = pick(rng);
    dst[i] = pick(rng);
  }
  const RouteEngine engine(net);
  RouteBatch batch;
  engine.route_batch(src, dst, batch);
  Routed r;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::span<const Generator> w = batch.word(i);
    r.words.insert(r.words.end(), w.begin(), w.end());
    r.lengths.push_back(batch.length(i));
  }
  return r;
}

TEST(TierIdentity, RouteWordsOnAllFamilies) {
  const KernelTier best = supported_kernel_tiers().back();
  if (best == KernelTier::kScalar) GTEST_SKIP() << "no SIMD tier compiled in";
  for (const NetworkSpec& net : all_families()) {
    const Routed scalar = route_all(net, KernelTier::kScalar);
    const Routed simd = route_all(net, best);
    EXPECT_EQ(scalar.lengths, simd.lengths) << net.name;
    EXPECT_EQ(scalar.words, simd.words) << net.name;
  }
}

TEST(TierIdentity, OracleTableAndHistogram) {
  const KernelTier best = supported_kernel_tiers().back();
  if (best == KernelTier::kScalar) GTEST_SKIP() << "no SIMD tier compiled in";
  const NetworkSpec net = make_macro_star(2, 2);  // k=5, 120 states
  std::unique_ptr<DistanceOracle> scalar, simd;
  {
    const TierGuard guard(KernelTier::kScalar);
    scalar = std::make_unique<DistanceOracle>(DistanceOracle::build(net));
  }
  {
    const TierGuard guard(best);
    simd = std::make_unique<DistanceOracle>(DistanceOracle::build(net));
  }
  EXPECT_EQ(scalar->histogram(), simd->histogram());
  const Permutation id = Permutation::identity(net.k());
  for (std::uint64_t v = 0; v < net.num_nodes(); ++v) {
    ASSERT_EQ(scalar->exact_distance(v, 0), simd->exact_distance(v, 0)) << v;
  }
}

TEST(TierIdentity, SimResultOnLazyRoutedTraffic) {
  const KernelTier best = supported_kernel_tiers().back();
  if (best == KernelTier::kScalar) GTEST_SKIP() << "no SIMD tier compiled in";
  const NetworkSpec net = make_macro_star(2, 2);
  const Graph g = materialize(net);
  const OffchipTable offchip = mcmp_offchip_table(net, g);
  std::vector<TrafficPair> pairs = random_traffic_pairs(net.num_nodes(), 6, 7);
  for (std::size_t i = 0; i < pairs.size(); ++i) pairs[i].inject_time = i % 16;
  EventSimConfig cfg;
  cfg.offchip_cycles_per_flit = std::max(1, net.intercluster_degree());
  cfg.route_chunk = 64;
  auto run = [&](KernelTier tier) {
    const TierGuard guard(tier);
    GamePolicy policy(net);
    return simulate_events(g, offchip, pairs, policy, cfg);
  };
  const EventSimResult a = run(KernelTier::kScalar);
  const EventSimResult b = run(best);
  EXPECT_EQ(a.completion_cycles, b.completion_cycles);
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.total_hops, b.total_hops);
  EXPECT_EQ(a.offchip_hops, b.offchip_hops);
  EXPECT_EQ(a.max_link_busy, b.max_link_busy);
  EXPECT_EQ(a.telemetry.events_processed, b.telemetry.events_processed);
}

}  // namespace
}  // namespace scg
