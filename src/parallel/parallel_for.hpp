// Chunked parallel-for on top of ThreadPool::run, plus a parallel reduction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace scg {

/// Runs `body(begin, end, chunk)` over disjoint chunks of [0, n) on the
/// pool, with a dense chunk index in [0, num_chunks); `setup(num_chunks)`
/// runs once before any chunk so the caller can size per-chunk output
/// buffers.  Blocks until all chunks complete (the calling thread runs
/// chunks too) and rethrows the first exception a chunk threw.  `body`
/// must be thread-safe across disjoint ranges.  With `grain` elements or
/// fewer, or on a one-participant pool, runs one chunk inline (no lock, no
/// allocation).
template <typename Setup, typename Body>
void parallel_for_chunks_indexed(std::uint64_t n, Setup&& setup, Body&& body,
                                 std::uint64_t grain = 1 << 12,
                                 ThreadPool* pool = nullptr) {
  if (n == 0) {
    setup(std::uint64_t{0});
    return;
  }
  if (pool == nullptr) pool = &ThreadPool::global();
  if (n <= grain || pool->size() <= 1) {
    setup(std::uint64_t{1});
    body(std::uint64_t{0}, n, std::uint64_t{0});
    return;
  }
  const std::uint64_t chunks =
      std::min<std::uint64_t>(pool->size() * 4, (n + grain - 1) / grain);
  const std::uint64_t step = (n + chunks - 1) / chunks;
  const std::uint64_t used = (n + step - 1) / step;
  setup(used);
  pool->run(used, [step, n, &body](std::size_t c) {
    const std::uint64_t lo = c * step;
    const std::uint64_t hi = std::min(n, lo + step);
    body(lo, hi, c);
  });
}

/// parallel_for_chunks_indexed without the chunk index: runs
/// `body(begin, end)` over disjoint chunks of [0, n).
template <typename Body>
void parallel_for_chunks(std::uint64_t n, Body&& body,
                         std::uint64_t grain = 1 << 12,
                         ThreadPool* pool = nullptr) {
  parallel_for_chunks_indexed(
      n, [](std::uint64_t) {},
      [&body](std::uint64_t lo, std::uint64_t hi, std::uint64_t) {
        body(lo, hi);
      },
      grain, pool);
}

/// Parallel reduction: applies `body(begin, end) -> T` to the chunks
/// [c * grain, (c + 1) * grain) of [0, n) and folds the partials into
/// `init` with `combine` in chunk order.  The chunks and the order do not
/// depend on the pool (a 1-participant pool runs them inline), so the
/// result is the same on every host, floating-point sums included.
template <typename T, typename Body, typename Combine>
T parallel_reduce(std::uint64_t n, T init, Body&& body, Combine&& combine,
                  std::uint64_t grain = 1 << 12, ThreadPool* pool = nullptr) {
  grain = std::max<std::uint64_t>(grain, 1);
  const std::uint64_t chunks = (n + grain - 1) / grain;
  if (pool == nullptr && chunks > 1) pool = &ThreadPool::global();
  std::vector<T> partials(chunks, init);
  const auto run = [grain, n, &partials, &body](std::size_t c) {
    partials[c] = body(c * grain, std::min(n, (c + 1) * grain));
  };
  if (chunks <= 1 || pool->size() <= 1) {
    for (std::size_t c = 0; c < chunks; ++c) run(c);
  } else {
    pool->run(chunks, run);
  }
  T acc = init;
  for (const T& p : partials) acc = combine(acc, p);
  return acc;
}

}  // namespace scg
