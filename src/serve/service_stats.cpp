#include "serve/service_stats.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "core/check.hpp"
#include "sim/stats.hpp"

namespace scg {

int LatencyHistogram::bucket_of(std::uint64_t v) {
  if (v < kSub) return static_cast<int>(v);
  // Shift so the value's top 4 bits land in [8, 15]; each octave above the
  // first contributes 8 buckets.
  const int shift = std::bit_width(v) - 4;
  const int idx = shift * kSub + static_cast<int>(v >> shift);
  return std::min(idx, kBuckets - 1);
}

std::uint64_t LatencyHistogram::bucket_upper(int b) {
  if (b < kSub) return static_cast<std::uint64_t>(b);
  const int shift = b / kSub - 1;
  const std::uint64_t base = static_cast<std::uint64_t>(b % kSub + kSub)
                             << shift;
  return base + ((std::uint64_t{1} << shift) - 1);
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const {
  Snapshot s;
  for (int b = 0; b < kBuckets; ++b) {
    s.counts[static_cast<std::size_t>(b)] =
        buckets_[static_cast<std::size_t>(b)].load(std::memory_order_relaxed);
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  return s;
}

std::uint64_t LatencyHistogram::Snapshot::percentile(std::uint64_t q_num,
                                                     std::uint64_t q_den) const {
  if (count == 0) return 0;
  // Same rank convention as sim/stats.hpp sorted_percentile, applied to
  // bucket counts instead of raw samples.
  const std::uint64_t rank = percentile_rank(count, q_num, q_den);
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += counts[static_cast<std::size_t>(b)];
    if (seen > rank) return std::min(bucket_upper(b), max);
  }
  return max;
}

void ServiceStats::on_batch(std::size_t size) {
  // A batch never ships empty.
  SCG_DCHECK_GT(size, std::size_t{0});
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_requests_.fetch_add(size, std::memory_order_relaxed);
  std::uint64_t seen = occupancy_max_.load(std::memory_order_relaxed);
  while (size > seen && !occupancy_max_.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
  const std::size_t log2 = std::min<std::size_t>(
      occupancy_log2_.size() - 1,
      static_cast<std::size_t>(std::bit_width(size) - 1));
  occupancy_log2_[log2].fetch_add(1, std::memory_order_relaxed);
}

void ServiceStats::on_complete(const ServeTimestamps& t) {
  completed_ok_.fetch_add(1, std::memory_order_relaxed);
  total_.record(t.complete_ns - t.submit_ns);
  queue_.record(t.batch_ns - t.enqueue_ns);
  solve_.record(t.solved_ns - t.batch_ns);
}

ServiceStatsSnapshot ServiceStats::snapshot(
    std::uint64_t in_flight, std::uint64_t queue_high_water,
    std::uint64_t enqueue_blocked_ns, const RouteCacheStats& cache) const {
  ServiceStatsSnapshot s;
  s.offered = offered_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.completed_ok = completed_ok_.load(std::memory_order_relaxed);
  s.shed_load = shed_load_.load(std::memory_order_relaxed);
  s.shed_rate = shed_rate_.load(std::memory_order_relaxed);
  s.rejected_closed = rejected_closed_.load(std::memory_order_relaxed);
  s.in_flight = in_flight;
  s.batches = batches_.load(std::memory_order_relaxed);
  const std::uint64_t batched =
      batched_requests_.load(std::memory_order_relaxed);
  s.occupancy_mean = s.batches == 0 ? 0.0
                                    : static_cast<double>(batched) /
                                          static_cast<double>(s.batches);
  s.occupancy_max = occupancy_max_.load(std::memory_order_relaxed);
  for (std::size_t b = 0; b < occupancy_log2_.size(); ++b) {
    s.occupancy_log2[b] = occupancy_log2_[b].load(std::memory_order_relaxed);
  }
  s.total = total_.snapshot();
  s.queue = queue_.snapshot();
  s.solve = solve_.snapshot();
  s.queue_high_water = queue_high_water;
  s.enqueue_blocked_ns = enqueue_blocked_ns;
  s.cache = cache;
  return s;
}

std::string ServiceStatsSnapshot::json() const {
  char buf[256];
  std::string out = "{";
  const auto u = [&](const char* k, std::uint64_t v) {
    std::snprintf(buf, sizeof buf, "\"%s\": %llu, ", k,
                  static_cast<unsigned long long>(v));
    out += buf;
  };
  const auto d = [&](const char* k, double v) {
    std::snprintf(buf, sizeof buf, "\"%s\": %.6g, ", k, v);
    out += buf;
  };
  u("offered", offered);
  u("admitted", admitted);
  u("completed_ok", completed_ok);
  u("shed_load", shed_load);
  u("shed_rate", shed_rate);
  u("rejected_closed", rejected_closed);
  u("in_flight", in_flight);
  u("batches", batches);
  d("occupancy_mean", occupancy_mean);
  u("occupancy_max", occupancy_max);
  u("total_p50_ns", total.percentile(50));
  u("total_p95_ns", total.percentile(95));
  u("total_p99_ns", total.percentile(99));
  u("total_p999_ns", total.percentile(999, 1000));
  u("total_max_ns", total.max);
  d("total_mean_ns", total.mean());
  u("queue_p50_ns", queue.percentile(50));
  u("queue_p99_ns", queue.percentile(99));
  u("solve_p50_ns", solve.percentile(50));
  u("solve_p99_ns", solve.percentile(99));
  u("queue_high_water", queue_high_water);
  u("enqueue_blocked_ns", enqueue_blocked_ns);
  u("cache_hits", cache.hits);
  u("cache_misses", cache.misses);
  u("cache_evictions", cache.evictions);
  d("cache_hit_rate", cache_hit_rate());
  d("shed_fraction", shed_fraction());
  out.resize(out.size() - 2);  // drop the trailing ", "
  out += "}";
  return out;
}

}  // namespace scg
