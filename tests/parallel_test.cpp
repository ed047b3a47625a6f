// Thread pool and parallel-for: coverage, determinism, reductions.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace scg {
namespace {

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ReusableAcrossWaves) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 20; ++i) {
      pool.submit([&count] { ++count; });
    }
    pool.wait_idle();
    EXPECT_EQ(count.load(), (wave + 1) * 20);
  }
}

TEST(ThreadPool, SubmitBatchRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(997);  // odd size, not a chunk multiple
  pool.submit_batch(hits.size(), [&](std::size_t i) {
    ++hits[i];
  });
  pool.wait_idle();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SubmitBatchZeroCountIsANoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.submit_batch(0, [&](std::size_t) { called = true; });
  pool.wait_idle();
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SubmitBatchInterleavesWithPlainSubmit) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int wave = 0; wave < 4; ++wave) {
    pool.submit([&count] { ++count; });
    pool.submit_batch(50, [&count](std::size_t) { ++count; });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 4 * 51);
}

TEST(ThreadPool, SizeDefaultsToHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, TrySubmitRunsTasksWhenAccepted) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  int accepted = 0;
  // try_submit may refuse under lock contention; loop until each of the 50
  // tasks is accepted.  Every acceptance must execute exactly once.
  for (int i = 0; i < 50; ++i) {
    while (!pool.try_submit(
        [&count] { count.fetch_add(1, std::memory_order_relaxed); })) {
    }
    ++accepted;
  }
  pool.wait_idle();
  EXPECT_EQ(accepted, 50);
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, QueueDepthReflectsPendingTasks) {
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  std::atomic<bool> started{false};
  pool.submit([&] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();
  // The single worker is pinned on the gate task; everything submitted now
  // stays queued and must be visible through queue_depth().
  constexpr std::size_t kQueued = 7;
  for (std::size_t i = 0; i < kQueued; ++i) {
    pool.submit([] {});
  }
  EXPECT_EQ(pool.queue_depth(), kQueued);
  release.store(true);
  pool.wait_idle();
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPool, SubmitBatchUnderContentionNeverDeadlocksAtTeardown) {
  // Regression: repeatedly tear a pool down while several threads are
  // mid-submit_batch.  Every submitted index must still run exactly once
  // (submit_batch returns only after enqueuing), and destruction must not
  // deadlock on the shared-callable bookkeeping.
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::uint64_t> hits{0};
    constexpr int kSubmitters = 4;
    constexpr std::size_t kPerBatch = 333;
    {
      ThreadPool pool(3);
      std::vector<std::thread> submitters;
      for (int s = 0; s < kSubmitters; ++s) {
        submitters.emplace_back([&pool, &hits] {
          pool.submit_batch(kPerBatch, [&hits](std::size_t) {
            hits.fetch_add(1, std::memory_order_relaxed);
          });
        });
      }
      for (auto& t : submitters) t.join();
      // Pool destructor drains the queue and joins workers here.
    }
    EXPECT_EQ(hits.load(), kSubmitters * kPerBatch);
  }
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
