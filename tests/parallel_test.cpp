// Thread pool and parallel-for: coverage, determinism, reductions.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace scg {
namespace {

TEST(ThreadPool, ReusableAcrossWaves) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int wave = 0; wave < 5; ++wave) {
    pool.run(20, [&count](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), (wave + 1) * 20);
  }
}

TEST(ThreadPool, SubmitBatchRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(997);  // odd size, not a chunk multiple
  pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SubmitBatchZeroCountIsANoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.run(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SizeDefaultsToHardware) {
  ThreadPool pool;
  const std::size_t hw = std::thread::hardware_concurrency();
  EXPECT_EQ(pool.size(), hw == 0 ? 4u : hw);
}

TEST(ThreadPool, OneParticipantRunsTasksOnTheCaller) {
  ThreadPool one(1);
  EXPECT_EQ(one.size(), 1u);
  std::vector<std::thread::id> ran(8);
  one.run(ran.size(), [&](std::size_t i) { ran[i] = std::this_thread::get_id(); });
  for (const std::thread::id id : ran) EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(ThreadPool, SubmitBatchUnderContentionNeverDeadlocksAtTeardown) {
  // Regression: repeatedly tear a pool down right after several threads
  // ran concurrent jobs on it.  Every index must run exactly once, and
  // destruction must not deadlock on a job a worker still holds.
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::uint64_t> hits{0};
    constexpr int kCallers = 4;
    constexpr std::size_t kPerJob = 333;
    {
      ThreadPool pool(3);
      std::vector<std::thread> callers;
      for (int s = 0; s < kCallers; ++s) {
        callers.emplace_back([&pool, &hits] {
          pool.run(kPerJob, [&hits](std::size_t) {
            hits.fetch_add(1, std::memory_order_relaxed);
          });
        });
      }
      for (auto& t : callers) t.join();
    }
    EXPECT_EQ(hits.load(), kCallers * kPerJob);
  }
}

// The two tests below bound every wait, so a pool that blocks a caller
// fails them instead of hanging the suite.
constexpr auto kDeadline = std::chrono::seconds(10);

/// Spins until `pred()` holds or the deadline passes; returns pred().
template <typename Pred>
bool eventually(Pred pred) {
  const auto until = std::chrono::steady_clock::now() + kDeadline;
  while (!pred() && std::chrono::steady_clock::now() < until) {
    std::this_thread::yield();
  }
  return pred();
}

TEST(ParallelFor, ConcurrentCallersDoNotWaitForEachOther) {
  ThreadPool pool(3);
  std::atomic<bool> gate{false};
  std::atomic<int> blocked{0};
  // One caller's two chunks stay blocked until the gate opens.
  std::thread holder([&] {
    parallel_for_chunks(
        2,
        [&](std::uint64_t, std::uint64_t) {
          ++blocked;
          while (!gate.load()) std::this_thread::yield();
        },
        /*grain=*/1, &pool);
  });
  EXPECT_TRUE(eventually([&] { return blocked.load() == 2; }));
  constexpr int kCallers = 2;
  std::atomic<int> returned{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      std::vector<int> hits(64);
      parallel_for_chunks(
          hits.size(),
          [&](std::uint64_t lo, std::uint64_t hi) {
            for (std::uint64_t i = lo; i < hi; ++i) ++hits[i];
          },
          /*grain=*/1, &pool);
      EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), 64);
      ++returned;
    });
  }
  EXPECT_TRUE(eventually([&] { return returned.load() == kCallers; }))
      << "a caller waited for another caller's chunks";
  gate.store(true);
  holder.join();
  for (auto& t : callers) t.join();
}

TEST(ParallelFor, NestedCallFromAChunkCompletes) {
  // A nested call that never returns cannot be joined, nor its pool
  // destroyed: the test then detaches the thread and leaks the pool, so
  // the state the thread uses is shared or leaked rather than on the stack.
  auto* pool = new ThreadPool(3);
  auto inner = std::make_shared<std::atomic<int>>(0);
  auto finished = std::make_shared<std::atomic<bool>>(false);
  std::thread outer([pool, inner, finished] {
    parallel_for_chunks(
        4,
        [&](std::uint64_t, std::uint64_t) {
          parallel_for_chunks(
              8, [&](std::uint64_t lo, std::uint64_t hi) {
                *inner += static_cast<int>(hi - lo);
              },
              /*grain=*/1, pool);
        },
        /*grain=*/1, pool);
    finished->store(true);
  });
  if (!eventually([&] { return finished->load(); })) {
    outer.detach();
    FAIL() << "a parallel_for_chunks nested in a chunk did not return";
  }
  outer.join();
  EXPECT_EQ(inner->load(), 4 * 8);
  delete pool;
}

TEST(ParallelFor, ThrowingChunkIsRethrownOnTheCaller) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  const auto sweep = [&] {
    parallel_for_chunks(
        hits.size(),
        [&](std::uint64_t lo, std::uint64_t hi) {
          for (std::uint64_t i = lo; i < hi; ++i) ++hits[i];
          if (lo <= 37 && 37 < hi) throw std::runtime_error("chunk 37");
        },
        /*grain=*/1, &pool);
  };
  EXPECT_THROW(sweep(), std::runtime_error);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // The pool is still usable after the throw.
  for (auto& h : hits) h = 0;
  parallel_for_chunks(
      hits.size(),
      [&](std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t i = lo; i < hi; ++i) ++hits[i];
      },
      /*grain=*/1, &pool);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  parallel_for_chunks(
      hits.size(),
      [&](std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t i = lo; i < hi; ++i) ++hits[i];
      },
      /*grain=*/128, &pool);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeDoesNothing) {
  bool called = false;
  parallel_for_chunks(0, [&](std::uint64_t, std::uint64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SmallRangeRunsInline) {
  ThreadPool pool(4);
  int calls = 0;
  parallel_for_chunks(
      10, [&](std::uint64_t lo, std::uint64_t hi) {
        ++calls;
        EXPECT_EQ(lo, 0u);
        EXPECT_EQ(hi, 10u);
      },
      /*grain=*/100, &pool);
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForIndexed, ChunksAreDisjointAndComplete) {
  ThreadPool pool(4);
  std::vector<std::vector<std::uint64_t>> buffers;
  parallel_for_chunks_indexed(
      5000, [&](std::uint64_t chunks) { buffers.resize(chunks); },
      [&](std::uint64_t lo, std::uint64_t hi, std::uint64_t chunk) {
        for (std::uint64_t i = lo; i < hi; ++i) buffers[chunk].push_back(i);
      },
      /*grain=*/64, &pool);
  std::vector<std::uint64_t> all;
  for (const auto& b : buffers) all.insert(all.end(), b.begin(), b.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), 5000u);
  for (std::uint64_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i);
}

TEST(ParallelReduce, SumsCorrectly) {
  ThreadPool pool(4);
  const std::uint64_t n = 100000;
  const std::uint64_t sum = parallel_reduce<std::uint64_t>(
      n, 0,
      [](std::uint64_t lo, std::uint64_t hi) {
        std::uint64_t s = 0;
        for (std::uint64_t i = lo; i < hi; ++i) s += i;
        return s;
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; },
      /*grain=*/512, &pool);
  EXPECT_EQ(sum, n * (n - 1) / 2);
}

TEST(ParallelReduce, MaxReduction) {
  ThreadPool pool(2);
  std::vector<int> data(5000);
  std::iota(data.begin(), data.end(), -2500);
  const int mx = parallel_reduce<int>(
      data.size(), INT_MIN,
      [&](std::uint64_t lo, std::uint64_t hi) {
        int m = INT_MIN;
        for (std::uint64_t i = lo; i < hi; ++i) m = std::max(m, data[i]);
        return m;
      },
      [](int a, int b) { return std::max(a, b); }, /*grain=*/128, &pool);
  EXPECT_EQ(mx, 2499);
}

TEST(ParallelReduce, DoubleSumIsTheSameOnEveryPoolSize) {
  // Floating-point addition is not associative, so the sum is bit-identical
  // across hosts only if neither the chunks nor their combine order depend
  // on the pool size (a 1-thread pool runs the chunks inline).
  const auto harmonic = [](ThreadPool& pool) {
    return parallel_reduce<double>(
        200'000, 0.0,
        [](std::uint64_t lo, std::uint64_t hi) {
          double s = 0.0;
          for (std::uint64_t i = lo; i < hi; ++i) {
            s += 1.0 / static_cast<double>(i + 1);
          }
          return s;
        },
        [](double a, double b) { return a + b; }, /*grain=*/1024, &pool);
  };
  ThreadPool one(1);
  const double want = harmonic(one);
  for (const std::size_t threads : {2, 3, 4}) {
    ThreadPool pool(threads);
    EXPECT_EQ(harmonic(pool), want) << threads << " threads";
  }
}

TEST(ParallelReduce, EmptyRangeReturnsInit) {
  const int v = parallel_reduce<int>(
      0, 42, [](std::uint64_t, std::uint64_t) { return 0; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(v, 42);
}

}  // namespace
}  // namespace scg
