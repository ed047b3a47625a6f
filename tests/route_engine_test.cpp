// RouteEngine: batch words byte-identical to scalar route(), cache
// soundness under vertex-transitivity, route lengths equal to word sizes,
// arena stability, and the word-bound contract.
#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <random>
#include <span>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/oracle_audit.hpp"
#include "networks/route_engine.hpp"
#include "networks/router.hpp"
#include "oracle/oracle.hpp"
#include "parallel/thread_pool.hpp"

namespace scg {
namespace {

/// One instance of every family (directed and undirected) at bench sizes.
std::vector<NetworkSpec> all_families() {
  std::vector<NetworkSpec> nets;
  nets.push_back(make_star_graph(7));
  nets.push_back(make_macro_star(2, 3));
  nets.push_back(make_macro_star(3, 2));
  nets.push_back(make_rotation_star(3, 2));
  nets.push_back(make_complete_rotation_star(3, 2));
  nets.push_back(make_macro_rotator(3, 2));
  nets.push_back(make_rotation_rotator(3, 2));
  nets.push_back(make_complete_rotation_rotator(3, 2));
  nets.push_back(make_macro_is(3, 2));
  nets.push_back(make_rotation_is(3, 2));
  nets.push_back(make_complete_rotation_is(3, 2));
  nets.push_back(make_insertion_selection(7));
  nets.push_back(make_rotator_graph(7));
  nets.push_back(make_bubble_sort_graph(7));
  nets.push_back(make_transposition_network(7));
  nets.push_back(make_pancake_graph(7));
  nets.push_back(make_partial_rotation_star(4, 2, {1, 2}));
  nets.push_back(make_partial_rotation_is(4, 2, {1, 2}));
  nets.push_back(make_recursive_macro_star(2, 2, 2));
  return nets;
}

struct PairList {
  std::vector<std::uint64_t> src;
  std::vector<std::uint64_t> dst;
};

PairList random_pairs(const NetworkSpec& net, std::size_t count,
                      std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
  PairList p;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t s = pick(rng);
    std::uint64_t d = pick(rng);
    if (d == s) d = (d + 1) % net.num_nodes();
    p.src.push_back(s);
    p.dst.push_back(d);
  }
  return p;
}

TEST(RouteEngine, BatchWordsByteIdenticalToScalarOnAllFamilies) {
  // 600 pairs spans several 256-pair chunks, so chunk addressing is
  // exercised along with the solver kernels.
  for (const NetworkSpec& net : all_families()) {
    const PairList pairs = random_pairs(net, 600, 7);
    const RouteEngine engine(net);
    RouteBatch batch;
    engine.route_batch(pairs.src, pairs.dst, batch);
    ASSERT_EQ(batch.size(), pairs.src.size());
    std::uint64_t hops = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::vector<Generator> scalar =
          route(net, Permutation::unrank(net.k(), pairs.src[i]),
                Permutation::unrank(net.k(), pairs.dst[i]));
      const std::span<const Generator> word = batch.word(i);
      ASSERT_EQ(word.size(), scalar.size()) << net.name << " pair " << i;
      for (std::size_t j = 0; j < word.size(); ++j) {
        ASSERT_EQ(word[j], scalar[j]) << net.name << " pair " << i;
      }
      ASSERT_EQ(batch.length(i), static_cast<int>(scalar.size()));
      hops += scalar.size();
    }
    EXPECT_EQ(batch.total_length(), hops) << net.name;
  }
}

TEST(RouteEngine, BatchMatchesScalarOnRecursiveMacroStar) {
  const NetworkSpec net = make_recursive_macro_star(2, 2, 2);
  const PairList pairs = random_pairs(net, 300, 11);
  const RouteEngine engine(net);
  RouteBatch batch;
  engine.route_batch(pairs.src, pairs.dst, batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Permutation u = Permutation::unrank(net.k(), pairs.src[i]);
    const Permutation v = Permutation::unrank(net.k(), pairs.dst[i]);
    const std::vector<Generator> scalar = route(net, u, v);
    const std::span<const Generator> word = batch.word(i);
    ASSERT_EQ(std::vector<Generator>(word.begin(), word.end()), scalar);
    EXPECT_EQ(check_route(net, u, v, scalar), "");
  }
}

TEST(RouteEngine, CacheHitReturnsIdenticalCheckCleanWord) {
  for (const NetworkSpec& net :
       {make_macro_star(3, 2), make_rotation_is(3, 2)}) {
    const RouteEngine engine(net);
    RouteBuffer buf;
    const PairList pairs = random_pairs(net, 64, 3);
    std::vector<std::vector<Generator>> first;
    for (std::size_t i = 0; i < pairs.src.size(); ++i) {
      const auto w = engine.route_into(
          Permutation::unrank(net.k(), pairs.src[i]),
          Permutation::unrank(net.k(), pairs.dst[i]), buf);
      first.emplace_back(w.begin(), w.end());
    }
    for (std::size_t i = 0; i < pairs.src.size(); ++i) {
      const Permutation u = Permutation::unrank(net.k(), pairs.src[i]);
      const Permutation v = Permutation::unrank(net.k(), pairs.dst[i]);
      const auto w = engine.route_into(u, v, buf);
      EXPECT_EQ(std::vector<Generator>(w.begin(), w.end()), first[i]);
      EXPECT_EQ(check_route(net, u, v, first[i]), "");
    }
    const RouteCacheStats stats = engine.cache_stats();
    EXPECT_GE(stats.hits, pairs.src.size());  // pass 2 is all hits
    EXPECT_GT(stats.entries, 0u);
  }
}

TEST(RouteEngine, CacheSharedAcrossPairsWithSameRelativePermutation) {
  // Left translation preserves W = V^{-1}∘U: (σ∘U, σ∘V) has the same
  // relative displacement, so the second pair must hit the first's entry.
  const NetworkSpec net = make_macro_star(3, 2);
  const RouteEngine engine(net);
  RouteBuffer buf;
  std::mt19937_64 rng(5);
  std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
  for (int trial = 0; trial < 16; ++trial) {
    const Permutation u = Permutation::unrank(net.k(), pick(rng));
    const Permutation v = Permutation::unrank(net.k(), pick(rng));
    const Permutation sigma = Permutation::unrank(net.k(), pick(rng));
    const Permutation u2 = u.relabel_symbols(sigma);
    const Permutation v2 = v.relabel_symbols(sigma);
    ASSERT_EQ(u2.relabel_symbols(v2.inverse()),
              u.relabel_symbols(v.inverse()));

    const std::uint64_t hits_before = engine.cache_stats().hits;
    const auto w1 = engine.route_into(u, v, buf);
    const std::vector<Generator> word1(w1.begin(), w1.end());
    const auto w2 = engine.route_into(u2, v2, buf);
    EXPECT_EQ(std::vector<Generator>(w2.begin(), w2.end()), word1);
    EXPECT_GT(engine.cache_stats().hits, hits_before);
    // The shared word is a valid route for *both* pairs.
    EXPECT_EQ(check_route(net, u2, v2, word1), "");
  }
}

TEST(RouteEngine, RouteLengthMatchesScalarWordSizeOnAllFamilies) {
  // Cache off, the free function, and a cache-on arm: there the first
  // route_length of a relative permutation is a miss and the one after
  // route_into a hit, both the word size, and every call is one lookup.
  for (const NetworkSpec& net : all_families()) {
    const RouteEngine uncached(net, RouteEngineConfig{.cache_capacity = 0});
    const RouteEngine cached(net);
    RouteBuffer buf;
    std::unordered_set<std::uint64_t> seen;
    std::uint64_t lookups = 0;
    const PairList pairs = random_pairs(net, 128, 13);
    for (std::size_t i = 0; i < pairs.src.size(); ++i) {
      const Permutation u = Permutation::unrank(net.k(), pairs.src[i]);
      const Permutation v = Permutation::unrank(net.k(), pairs.dst[i]);
      const int expected = static_cast<int>(route(net, u, v).size());
      EXPECT_EQ(uncached.route_length(u, v), expected) << net.name;
      EXPECT_EQ(route_length(net, u, v), expected) << net.name;
      if (!seen.insert(u.relabel_symbols(v.inverse()).rank()).second) continue;
      const RouteCacheStats cold = cached.cache_stats();
      EXPECT_EQ(cached.route_length(u, v), expected) << net.name;
      EXPECT_EQ(cached.cache_stats().misses, cold.misses + 1) << net.name;
      cached.route_into(u, v, buf);
      const RouteCacheStats warm = cached.cache_stats();
      EXPECT_EQ(cached.route_length(u, v), expected) << net.name;
      EXPECT_EQ(cached.cache_stats().hits, warm.hits + 1) << net.name;
      lookups += 3;
    }
    const RouteCacheStats stats = cached.cache_stats();
    EXPECT_EQ(stats.hits + stats.misses, lookups) << net.name;
  }
}

TEST(RouteEngine, RouteLengthMissInsertsTheSolvedWord) {
  // route_length is the size of the word route_rel_into solves, so a miss
  // caches that word and the route_into after it hits.
  const NetworkSpec net = make_macro_star(3, 2);
  const RouteEngine engine(net);
  const Permutation u = Permutation::unrank(net.k(), 1234);
  const Permutation v = Permutation::unrank(net.k(), 42);
  const int length = engine.route_length(u, v);
  EXPECT_EQ(engine.cache_stats().misses, 1u);
  EXPECT_EQ(engine.cache_stats().entries, 1u);
  RouteBuffer buf;
  EXPECT_EQ(static_cast<int>(engine.route_into(u, v, buf).size()), length);
  EXPECT_EQ(engine.cache_stats().hits, 1u);
  EXPECT_EQ(engine.cache_stats().misses, 1u);
}

TEST(RouteEngine, ScalarWordNeverExceedsWordBound) {
  std::vector<NetworkSpec> nets = all_families();
  nets.push_back(make_complete_rotation_star(4, 2));
  for (const NetworkSpec& net : nets) {
    const int bound = route_word_bound(net);
    const PairList pairs = random_pairs(net, 256, 17);
    for (std::size_t i = 0; i < pairs.src.size(); ++i) {
      const std::vector<Generator> word =
          route(net, Permutation::unrank(net.k(), pairs.src[i]),
                Permutation::unrank(net.k(), pairs.dst[i]));
      ASSERT_LE(static_cast<int>(word.size()), bound) << net.name;
    }
  }
}

TEST(RouteEngine, BufferReachesSteadyStateWithoutReallocation) {
  const NetworkSpec net = make_macro_star(3, 2);
  const RouteEngine engine(net, RouteEngineConfig{.cache_capacity = 0});
  RouteBuffer buf;
  const PairList pairs = random_pairs(net, 256, 19);
  engine.route_into(Permutation::unrank(net.k(), pairs.src[0]),
                    Permutation::unrank(net.k(), pairs.dst[0]), buf);
  const std::size_t word_cap = buf.word.capacity();
  const std::size_t scratch_cap = buf.scratch.capacity();
  EXPECT_GE(word_cap, static_cast<std::size_t>(engine.word_bound()));
  const Generator* word_data = buf.word.data();
  for (std::size_t i = 1; i < pairs.src.size(); ++i) {
    engine.route_into(Permutation::unrank(net.k(), pairs.src[i]),
                      Permutation::unrank(net.k(), pairs.dst[i]), buf);
  }
  EXPECT_EQ(buf.word.capacity(), word_cap);
  EXPECT_EQ(buf.scratch.capacity(), scratch_cap);
  EXPECT_EQ(buf.word.data(), word_data);  // storage never moved
}

TEST(RouteEngine, ScratchServesEnginesWithDifferentWordBoundsAlternately) {
  // One thread alternates between a small-bound and a large-bound engine's
  // scratch(); every word must equal route() and the buffer must cover the
  // calling engine's bound.
  const NetworkSpec small = make_star_graph(5);
  const NetworkSpec large = make_rotation_rotator(3, 2);
  const RouteEngine a(small);
  const RouteEngine b(large, RouteEngineConfig{.cache_capacity = 0});
  ASSERT_LT(a.word_bound(), b.word_bound());
  const PairList pa = random_pairs(small, 64, 43);
  const PairList pb = random_pairs(large, 64, 47);
  for (std::size_t i = 0; i < pa.src.size(); ++i) {
    for (const auto& [engine, pairs] : {std::pair{&a, &pa}, std::pair{&b, &pb}}) {
      const NetworkSpec& net = engine->spec();
      const Permutation u = Permutation::unrank(net.k(), pairs->src[i]);
      const Permutation v = Permutation::unrank(net.k(), pairs->dst[i]);
      RouteBuffer& buf = engine->scratch();
      EXPECT_GE(buf.word.capacity(),
                static_cast<std::size_t>(engine->word_bound()));
      const std::span<const Generator> word = engine->route_into(u, v, buf);
      ASSERT_EQ(std::vector<Generator>(word.begin(), word.end()),
                route(net, u, v))
          << net.name << " pair " << i;
    }
  }
}

TEST(RouteEngine, BatchArenasStableAcrossReuse) {
  const NetworkSpec net = make_macro_star(2, 3);
  const RouteEngine engine(net, RouteEngineConfig{.cache_capacity = 0});
  const PairList a = random_pairs(net, 500, 23);
  const PairList b = random_pairs(net, 500, 29);
  RouteBatch batch;
  engine.route_batch(a.src, a.dst, batch);
  engine.route_batch(b.src, b.dst, batch);  // reuse grows arenas to steady state
  engine.route_batch(a.src, a.dst, batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::vector<Generator> scalar =
        route(net, Permutation::unrank(net.k(), a.src[i]),
              Permutation::unrank(net.k(), a.dst[i]));
    const std::span<const Generator> word = batch.word(i);
    ASSERT_EQ(std::vector<Generator>(word.begin(), word.end()), scalar);
  }
}

TEST(RouteEngine, BatchRejectsMismatchedAndOutOfRangeInput) {
  const NetworkSpec net = make_star_graph(5);
  const RouteEngine engine(net);
  RouteBatch batch;
  const std::vector<std::uint64_t> src{0, 1};
  const std::vector<std::uint64_t> short_dst{2};
  EXPECT_THROW(engine.route_batch(src, short_dst, batch),
               std::invalid_argument);
  const std::vector<std::uint64_t> bad_dst{2, net.num_nodes()};
  EXPECT_THROW(engine.route_batch(src, bad_dst, batch), std::out_of_range);
}

TEST(RouteEngine, ExpandPathMatchesRouteTrace) {
  for (const NetworkSpec& net :
       {make_macro_star(3, 2), make_rotator_graph(6)}) {
    const RouteEngine engine(net);
    const PairList pairs = random_pairs(net, 64, 31);
    RouteBatch batch;
    engine.route_batch(pairs.src, pairs.dst, batch);
    std::vector<std::uint32_t> path;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      engine.expand_path(pairs.src[i], batch.word(i), path);
      const GameTrace trace =
          route_trace(net, Permutation::unrank(net.k(), pairs.src[i]),
                      Permutation::unrank(net.k(), pairs.dst[i]));
      ASSERT_EQ(path.size(), trace.states.size());
      for (std::size_t j = 0; j < path.size(); ++j) {
        ASSERT_EQ(path[j], trace.states[j].rank());
      }
    }
  }
}

TEST(RouteEngine, TinyCacheEvictsAndCountsStayConsistent) {
  const NetworkSpec net = make_macro_star(3, 2);
  RouteEngine engine(net, RouteEngineConfig{.cache_capacity = 8});
  RouteBuffer buf;
  const PairList pairs = random_pairs(net, 256, 37);
  for (std::size_t i = 0; i < pairs.src.size(); ++i) {
    engine.route_into(Permutation::unrank(net.k(), pairs.src[i]),
                      Permutation::unrank(net.k(), pairs.dst[i]), buf);
  }
  const RouteCacheStats stats = engine.cache_stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.entries, 8u);
  EXPECT_EQ(stats.hits + stats.misses, pairs.src.size());
}

TEST(RouteEngine, BatchIdenticalWithExplicitThreadPool) {
  const NetworkSpec net = make_macro_star(3, 2);
  const RouteEngine engine(net, RouteEngineConfig{.cache_capacity = 0});
  const PairList pairs = random_pairs(net, 700, 41);
  RouteBatch serial, pooled;
  ThreadPool one(1), four(4);
  engine.route_batch(pairs.src, pairs.dst, serial, &one);
  engine.route_batch(pairs.src, pairs.dst, pooled, &four);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const std::span<const Generator> a = serial.word(i);
    const std::span<const Generator> b = pooled.word(i);
    ASSERT_EQ(std::vector<Generator>(a.begin(), a.end()),
              std::vector<Generator>(b.begin(), b.end()));
  }
}

TEST(RouteEngine, AuditStretchMatchesDirectRecomputation) {
  // The audit measures lengths with the engine's route_length_rel; its
  // numbers must equal a brute recomputation with the scalar router (i.e.
  // the pre-engine audit results are unchanged).
  const NetworkSpec net = make_macro_star(2, 2);
  const DistanceOracle oracle = DistanceOracle::build(net);
  const OptimalityAudit audit = audit_route_optimality(net, oracle);
  const Permutation id = Permutation::identity(net.k());
  std::uint64_t sources = 0, optimal = 0;
  double stretch_sum = 0.0;
  for (std::uint64_t r = 0; r < net.num_nodes(); ++r) {
    const int exact = oracle.distance_to_identity(r);
    if (exact <= 0) continue;
    const int routed = static_cast<int>(
        route(net, Permutation::unrank(net.k(), r), id).size());
    ++sources;
    if (routed == exact) ++optimal;
    stretch_sum += static_cast<double>(routed) / exact;
  }
  EXPECT_EQ(audit.sources, sources);
  EXPECT_EQ(audit.optimal, optimal);
  EXPECT_DOUBLE_EQ(audit.avg_stretch,
                   stretch_sum / static_cast<double>(sources));
}

TEST(RouteEngine, CacheStatsConsistentUnderConcurrentMixedBatches) {
  // Four threads hammer one shared engine with different batch sizes while
  // a monitor thread samples cache_stats().  Lookup counters must be
  // monotone in every sample and exactly sum-consistent at the end.
  const NetworkSpec net = make_complete_rotation_star(2, 3);
  const RouteEngine engine(net, RouteEngineConfig{.cache_capacity = 1024});

  constexpr std::size_t kSizes[] = {37, 128, 300, 701};
  std::uint64_t total_pairs = 0;
  for (const std::size_t s : kSizes) total_pairs += 3 * s;

  std::atomic<bool> done{false};
  std::atomic<bool> monotone{true};
  std::thread monitor([&] {
    std::uint64_t last_hits = 0, last_misses = 0, last_evictions = 0;
    while (!done.load(std::memory_order_acquire)) {
      const RouteCacheStats s = engine.cache_stats();
      if (s.hits < last_hits || s.misses < last_misses ||
          s.evictions < last_evictions) {
        monotone.store(false, std::memory_order_relaxed);
      }
      last_hits = s.hits;
      last_misses = s.misses;
      last_evictions = s.evictions;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> batchers;
  for (std::size_t t = 0; t < std::size(kSizes); ++t) {
    batchers.emplace_back([&engine, &net, size = kSizes[t], t] {
      RouteBatch out;
      for (int round = 0; round < 3; ++round) {
        const PairList pairs =
            random_pairs(net, size, 1000 * t + static_cast<std::uint64_t>(round));
        engine.route_batch(pairs.src, pairs.dst, out);
      }
    });
  }
  for (auto& t : batchers) t.join();
  done.store(true, std::memory_order_release);
  monitor.join();

  EXPECT_TRUE(monotone.load());
  const RouteCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, total_pairs);
  EXPECT_LE(stats.entries, 1024u);
  // Every resident or evicted word came from exactly one miss-insert.
  EXPECT_LE(stats.entries + stats.evictions, stats.misses);
  EXPECT_GT(stats.hits, 0u);
}

}  // namespace
}  // namespace scg
