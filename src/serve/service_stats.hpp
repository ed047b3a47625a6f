// SLO telemetry for the RouteService: lock-free latency histograms,
// batch-occupancy distribution, admission/shed counters, snapshot-able as a
// flat JSON object.
//
// The hot path (every request completion, every batch) touches only relaxed
// atomics — no locks, no allocation — so telemetry never perturbs the tail
// it measures.  Percentiles come from an HDR-style histogram: power-of-two
// octaves split into 8 linear sub-buckets, giving <= 12.5% relative error
// on any value up to 2^63 ns, which is plenty for p50/p95/p99/p999 SLO
// reporting (exact-sample digests for benches live in sim/stats.hpp; both
// share the same percentile-rank convention).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "networks/route_engine.hpp"
#include "serve/request_queue.hpp"

namespace scg {

/// Steady-clock nanoseconds — the one timebase of the serving layer.
inline std::uint64_t serve_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Lock-free log-linear histogram (8 sub-buckets per octave).  record() is
/// wait-free; snapshot() is a relaxed sweep, consistent enough for
/// monitoring (counters are monotone, never torn).
class LatencyHistogram {
 public:
  static constexpr int kSub = 8;  ///< linear sub-buckets per octave
  /// Exactly covers uint64: the highest reachable index is
  /// bucket_of(2^64-1) = 60*kSub + 15 = 495, whose upper bound is 2^64-1.
  static constexpr int kBuckets = 496;

  void record(std::uint64_t v) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }

  struct Snapshot {
    std::array<std::uint64_t, kBuckets> counts{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;

    double mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
    /// Upper bound of the bucket holding the q-th percentile sample
    /// (q = q_num/q_den), clamped to the observed max.  0 when empty.
    std::uint64_t percentile(std::uint64_t q_num,
                             std::uint64_t q_den = 100) const;
  };

  Snapshot snapshot() const;

  /// Bucket index: values < 8 map exactly; above that, the top three bits
  /// select the sub-bucket within the value's octave.
  static int bucket_of(std::uint64_t v);
  /// Inclusive upper bound of bucket `b` (the representative value
  /// percentile() reports).
  static std::uint64_t bucket_upper(int b);

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Everything the service knows about itself at one instant.  Counters obey
/// offered == completed_ok + shed_load + shed_rate + rejected_closed +
/// in_flight: nothing is ever silently dropped.
struct ServiceStatsSnapshot {
  // Request accounting.
  std::uint64_t offered = 0;          ///< submit() calls
  std::uint64_t admitted = 0;         ///< passed admission into the queue
  std::uint64_t completed_ok = 0;     ///< replied with a route word
  std::uint64_t shed_load = 0;        ///< replied kShedLoad
  std::uint64_t shed_rate = 0;        ///< replied kShedRate
  std::uint64_t rejected_closed = 0;  ///< replied kClosed
  std::uint64_t in_flight = 0;        ///< admitted, reply still pending

  // Micro-batching.
  std::uint64_t batches = 0;          ///< route_batch calls across workers
  /// Always 0: RouteService no longer coalesces batchmates; a repeated W
  /// is a route-cache hit instead.  Kept only because
  /// benchmark/scg_bench.cpp reads it.  The benchmark change that drops
  /// its coalesced-fraction probe (ROADMAP item 3) deletes this field.
  std::uint64_t coalesced = 0;
  double occupancy_mean = 0;          ///< requests per batch
  std::uint64_t occupancy_max = 0;
  std::array<std::uint64_t, 16> occupancy_log2{};  ///< batch-size histogram, bucket = floor(log2(size))

  // Latency (nanoseconds, service-side).
  LatencyHistogram::Snapshot total;   ///< submit -> complete (admitted requests)
  LatencyHistogram::Snapshot queue;   ///< enqueue -> batch formation
  LatencyHistogram::Snapshot solve;   ///< batch formation -> engine done

  // Queue + cache health.
  std::uint64_t queue_high_water = 0;
  std::uint64_t enqueue_blocked_ns = 0;
  RouteCacheStats cache;

  double shed_fraction() const {
    return offered == 0 ? 0.0
                        : static_cast<double>(shed_load + shed_rate) /
                              static_cast<double>(offered);
  }
  double cache_hit_rate() const {
    const std::uint64_t lookups = cache.hits + cache.misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(cache.hits) /
                              static_cast<double>(lookups);
  }

  /// Flat JSON object ("{...}") with every counter and the
  /// p50/p95/p99/p999 of each latency stage — the machine-readable form the
  /// CLI prints and benches embed.
  std::string json() const;
};

/// The service's live counters.  All mutators are lock-free.
class ServiceStats {
 public:
  void on_offered() { offered_.fetch_add(1, std::memory_order_relaxed); }
  void on_shed(bool rate_limited) {
    (rate_limited ? shed_rate_ : shed_load_)
        .fetch_add(1, std::memory_order_relaxed);
  }
  void on_rejected_closed() {
    rejected_closed_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_admitted() { admitted_.fetch_add(1, std::memory_order_relaxed); }

  /// One micro-batch of `size` requests.
  void on_batch(std::size_t size);

  /// One request completed OK; records every stage histogram.
  void on_complete(const ServeTimestamps& t);

  /// `in_flight` is owned by the service (it needs it for drain()), so the
  /// snapshot takes it as an argument alongside the queue/cache gauges.
  ServiceStatsSnapshot snapshot(std::uint64_t in_flight,
                                std::uint64_t queue_high_water,
                                std::uint64_t enqueue_blocked_ns,
                                const RouteCacheStats& cache) const;

 private:
  std::atomic<std::uint64_t> offered_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> completed_ok_{0};
  std::atomic<std::uint64_t> shed_load_{0};
  std::atomic<std::uint64_t> shed_rate_{0};
  std::atomic<std::uint64_t> rejected_closed_{0};

  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_requests_{0};
  std::atomic<std::uint64_t> occupancy_max_{0};
  std::array<std::atomic<std::uint64_t>, 16> occupancy_log2_{};

  LatencyHistogram total_;
  LatencyHistogram queue_;
  LatencyHistogram solve_;
};

}  // namespace scg
