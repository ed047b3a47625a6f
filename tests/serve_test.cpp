// RouteService: concurrent serving correctness.
//
// The two load-bearing properties, each proven under real concurrency:
//  * Byte identity — every word a served reply carries is exactly what the
//    scalar route() returns for the same (src, dst), under >= 4 concurrent
//    submitters on >= 3 families with translation-equivalent duplicates in
//    flight (the route cache must never change an answer).
//  * Conservation — offered == delivered + shed + closed exactly.  A shed
//    request is an explicit reply, never a silent drop, under rate
//    limiting, load shedding, full queues, and shutdown races.
//
// Plus unit coverage of the pieces: the dual-trigger queue, the admission
// hysteresis, the lock-free histogram, and the shared percentile helpers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <random>
#include <thread>
#include <vector>

#include "networks/router.hpp"
#include "networks/super_cayley.hpp"
#include "serve/admission.hpp"
#include "serve/batcher.hpp"
#include "serve/loadgen.hpp"
#include "serve/request_queue.hpp"
#include "serve/service_stats.hpp"
#include "sim/stats.hpp"
#include "sim/workloads.hpp"

namespace scg {
namespace {

// ---------------------------------------------------------------------------
// Shared percentile helpers (sim/stats.hpp)
// ---------------------------------------------------------------------------

TEST(Stats, SortedPercentileMatchesEventCoreConvention) {
  // The event core's historical indexing: p50 = v[n/2],
  // p99 = v[min(n-1, 99n/100)].  The shared helper must reproduce it.
  for (const std::size_t n : {1u, 2u, 3u, 7u, 100u, 101u, 997u}) {
    std::vector<std::uint64_t> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = 10 * i;
    const std::span<const std::uint64_t> s(v);
    EXPECT_EQ(sorted_percentile(s, 50), v[n / 2]) << n;
    EXPECT_EQ(sorted_percentile(s, 99), v[std::min(n - 1, n * 99 / 100)]) << n;
    EXPECT_EQ(sorted_percentile(s, 999, 1000),
              v[std::min(n - 1, n * 999 / 1000)])
        << n;
  }
}

TEST(Stats, SummarizeLatencies) {
  std::vector<std::uint64_t> v = {5, 1, 9, 3, 7};
  const LatencySummary s = summarize_latencies(v);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_EQ(s.p50, 5u);
  EXPECT_EQ(s.max, 9u);
  std::vector<std::uint64_t> empty;
  EXPECT_EQ(summarize_latencies(empty).count, 0u);
}

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

TEST(LatencyHistogram, SmallValuesAreExact) {
  LatencyHistogram h;
  for (std::uint64_t v = 0; v < 8; ++v) h.record(v);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 8u);
  EXPECT_EQ(snap.percentile(0), 0u);
  EXPECT_EQ(snap.percentile(50), 4u);
  EXPECT_EQ(snap.max, 7u);
}

TEST(LatencyHistogram, BucketBoundsAreConsistent) {
  // Every value maps into a bucket whose [.., upper] range contains it,
  // and bucket uppers are strictly increasing.
  std::uint64_t prev_upper = 0;
  for (int b = 1; b < LatencyHistogram::kBuckets; ++b) {
    EXPECT_GT(LatencyHistogram::bucket_upper(b), prev_upper) << b;
    prev_upper = LatencyHistogram::bucket_upper(b);
  }
  std::mt19937_64 rng(42);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = rng() >> (rng() % 60);
    const int b = LatencyHistogram::bucket_of(v);
    EXPECT_LE(v, LatencyHistogram::bucket_upper(b)) << v;
    if (b > 0) {
      EXPECT_GT(v, LatencyHistogram::bucket_upper(b - 1)) << v;
    }
  }
}

TEST(LatencyHistogram, PercentileWithinBucketError) {
  LatencyHistogram h;
  std::mt19937_64 rng(7);
  std::vector<std::uint64_t> exact;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = 1000 + rng() % 1'000'000;
    h.record(v);
    exact.push_back(v);
  }
  const LatencySummary truth = summarize_latencies(exact);
  const auto snap = h.snapshot();
  // Log-linear buckets with 8 sub-buckets: <= 12.5% relative error.
  struct Q {
    std::uint64_t num, den, want;
  };
  const Q quantiles[] = {
      {50, 100, truth.p50}, {99, 100, truth.p99}, {999, 1000, truth.p999}};
  for (const Q& q : quantiles) {
    const double got = static_cast<double>(snap.percentile(q.num, q.den));
    EXPECT_GE(got, static_cast<double>(q.want) * 0.999);
    EXPECT_LE(got, static_cast<double>(q.want) * 1.125 + 1);
  }
}

// ---------------------------------------------------------------------------
// RequestQueue
// ---------------------------------------------------------------------------

ServeRequest make_req(std::uint64_t src) {
  ServeRequest r;
  r.src = src;
  return r;
}

TEST(RequestQueue, TryPushRefusesWhenFullAndCounts) {
  RequestQueue q(2);
  EXPECT_TRUE(q.try_push(make_req(1)));
  EXPECT_TRUE(q.try_push(make_req(2)));
  ServeRequest spare = make_req(3);
  EXPECT_FALSE(q.try_push(std::move(spare)));
  EXPECT_EQ(q.depth(), 2u);
  const RequestQueueStats s = q.stats();
  EXPECT_EQ(s.enqueued, 2u);
  EXPECT_EQ(s.rejected_full, 1u);
  EXPECT_EQ(s.high_water, 2u);
}

TEST(RequestQueue, PopBatchDrainsUpToMax) {
  RequestQueue q(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.try_push(make_req(i)));
  std::vector<ServeRequest> batch;
  EXPECT_EQ(q.pop_batch(batch, 4, std::chrono::microseconds(0)), 4u);
  EXPECT_EQ(batch[0].src, 0u);  // FIFO
  EXPECT_EQ(q.pop_batch(batch, 4, std::chrono::microseconds(0)), 4u);
  EXPECT_EQ(q.pop_batch(batch, 4, std::chrono::microseconds(0)), 2u);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(RequestQueue, MaxTriggerShipsBeforeLingerExpires) {
  RequestQueue q(16);
  std::vector<ServeRequest> batch;
  std::thread consumer([&] {
    // Would wait 10 s on the linger alone; must return at 4 requests.
    EXPECT_EQ(q.pop_batch(batch, 4, std::chrono::microseconds(10'000'000)),
              4u);
  });
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.push(make_req(i)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  consumer.join();
}

TEST(RequestQueue, CloseDrainsRemainingThenSignalsExit) {
  RequestQueue q(16);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.try_push(make_req(i)));
  q.close();
  EXPECT_FALSE(q.push(make_req(99)));
  EXPECT_FALSE(q.try_push(make_req(99)));
  std::vector<ServeRequest> batch;
  EXPECT_EQ(q.pop_batch(batch, 8, std::chrono::microseconds(1000)), 3u);
  EXPECT_EQ(q.pop_batch(batch, 8, std::chrono::microseconds(1000)), 0u);
}

// ---------------------------------------------------------------------------
// AdmissionController
// ---------------------------------------------------------------------------

TEST(Admission, DefaultAdmitsEverything) {
  AdmissionController a({});
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.admit(1 << 20, serve_now_ns()), Admission::kAdmit);
  }
}

TEST(Admission, HighWaterShedsWithHysteresis) {
  AdmissionConfig cfg;
  cfg.high_water = 100;
  cfg.low_water = 50;
  AdmissionController a(cfg);
  EXPECT_EQ(a.admit(99, 0), Admission::kAdmit);
  EXPECT_EQ(a.admit(100, 0), Admission::kShedLoad);
  // Depth back under high but above low: still shedding (hysteresis).
  EXPECT_EQ(a.admit(75, 0), Admission::kShedLoad);
  EXPECT_TRUE(a.shedding());
  // Recovered below low water: admitting again.
  EXPECT_EQ(a.admit(50, 0), Admission::kAdmit);
  EXPECT_FALSE(a.shedding());
}

TEST(Admission, TokenBucketRefillsAtConfiguredRate) {
  AdmissionConfig cfg;
  cfg.rate_limit_qps = 1000;  // 1 token per ms
  cfg.burst = 2;
  AdmissionController a(cfg);
  const std::uint64_t t0 = 1'000'000'000;
  EXPECT_EQ(a.admit(0, t0), Admission::kAdmit);  // burst token 1
  EXPECT_EQ(a.admit(0, t0), Admission::kAdmit);  // burst token 2
  EXPECT_EQ(a.admit(0, t0), Admission::kShedRate);
  // 1 ms later: exactly one token refilled.
  EXPECT_EQ(a.admit(0, t0 + 1'000'000), Admission::kAdmit);
  EXPECT_EQ(a.admit(0, t0 + 1'000'000), Admission::kShedRate);
}

// ---------------------------------------------------------------------------
// RouteService end-to-end
// ---------------------------------------------------------------------------

void expect_conserved(const ServiceStatsSnapshot& s) {
  EXPECT_EQ(s.offered, s.completed_ok + s.shed_load + s.shed_rate +
                           s.rejected_closed + s.in_flight);
}

TEST(RouteService, SingleRouteMatchesScalar) {
  const NetworkSpec net = make_macro_star(2, 2);
  RouteService svc(net);
  std::mt19937_64 rng(3);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t s = rng() % net.num_nodes();
    const std::uint64_t d = rng() % net.num_nodes();
    const RouteReply reply = svc.route(s, d);
    ASSERT_EQ(reply.status, ServeStatus::kOk);
    const auto expected = route(net, Permutation::unrank(net.k(), s),
                                Permutation::unrank(net.k(), d));
    EXPECT_EQ(reply.word, expected);
  }
  expect_conserved(svc.snapshot());
}

TEST(RouteService, RejectsOutOfRangeRanks) {
  const NetworkSpec net = make_macro_star(2, 2);
  RouteService svc(net);
  EXPECT_THROW(svc.submit(net.num_nodes(), 0), std::out_of_range);
  EXPECT_THROW(svc.submit(0, net.num_nodes()), std::out_of_range);
}

TEST(RouteService, TimestampsMonotone) {
  const NetworkSpec net = make_macro_star(2, 2);
  RouteService svc(net);
  const RouteReply r = svc.route(1, 17);
  ASSERT_EQ(r.status, ServeStatus::kOk);
  EXPECT_LE(r.t.submit_ns, r.t.enqueue_ns);
  EXPECT_LE(r.t.enqueue_ns, r.t.batch_ns);
  EXPECT_LE(r.t.batch_ns, r.t.solved_ns);
  EXPECT_LE(r.t.solved_ns, r.t.complete_ns);
}

/// The acceptance-criteria test: >= 4 concurrent submitters, >= 3 families,
/// every response word byte-identical to scalar route(), conservation
/// exact.  Mixed traffic: each submitter interleaves fresh random pairs
/// with translation-equivalent duplicates of other submitters' pairs.
TEST(RouteService, ByteIdenticalUnderConcurrentMixedTraffic) {
  const NetworkSpec families[] = {
      make_macro_star(2, 2),             // MS(2,2),  k=5
      make_complete_rotation_star(2, 3), // cRS(2,3), k=7
      make_pancake_graph(6),             // pancake,  k=6
  };
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 250;
  for (const NetworkSpec& net : families) {
    RouteServiceConfig cfg;
    cfg.workers = 3;
    cfg.max_batch = 32;
    cfg.linger_us = 200;
    RouteService svc(net, cfg);
    std::atomic<int> mismatches{0};
    std::atomic<std::uint64_t> ok{0};
    std::vector<std::thread> submitters;
    for (int s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&, s] {
        std::mt19937_64 rng(1000 + s);
        std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
        std::vector<std::future<RouteReply>> futs;
        for (int i = 0; i < kPerSubmitter; ++i) {
          std::uint64_t a, b;
          if (i % 4 == 3 && !pairs.empty()) {
            // Translation-equivalent duplicate of an earlier pair from a
            // different seed stream offset: reuse verbatim.
            std::tie(a, b) = pairs[rng() % pairs.size()];
          } else {
            a = rng() % net.num_nodes();
            b = rng() % net.num_nodes();
          }
          pairs.emplace_back(a, b);
          futs.push_back(svc.submit(a, b));
        }
        for (int i = 0; i < kPerSubmitter; ++i) {
          const RouteReply reply = futs[static_cast<std::size_t>(i)].get();
          ASSERT_EQ(reply.status, ServeStatus::kOk);
          ++ok;
          const auto [a, b] = pairs[static_cast<std::size_t>(i)];
          const auto expected =
              route(net, Permutation::unrank(net.k(), a),
                    Permutation::unrank(net.k(), b));
          if (reply.word != expected) ++mismatches;
        }
      });
    }
    for (std::thread& t : submitters) t.join();
    EXPECT_EQ(mismatches.load(), 0) << net.name;
    EXPECT_EQ(ok.load(), std::uint64_t{kSubmitters * kPerSubmitter});
    svc.drain();
    const ServiceStatsSnapshot snap = svc.snapshot();
    EXPECT_EQ(snap.offered, std::uint64_t{kSubmitters * kPerSubmitter})
        << net.name;
    EXPECT_EQ(snap.completed_ok, snap.offered) << net.name;
    EXPECT_EQ(snap.shed_load + snap.shed_rate + snap.rejected_closed, 0u);
    expect_conserved(snap);
    // Duplicates are route-cache hits.
    EXPECT_GT(snap.cache.hits, 0u) << net.name;
  }
}

TEST(RouteService, ConservationUnderRateLimitShedding) {
  const NetworkSpec net = make_macro_star(2, 2);
  RouteServiceConfig cfg;
  cfg.workers = 2;
  cfg.admission.rate_limit_qps = 2000;
  cfg.admission.burst = 64;
  RouteService svc(net, cfg);
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 2000;
  std::atomic<std::uint64_t> ok{0}, shed{0}, other{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      std::mt19937_64 rng(s);
      std::vector<std::future<RouteReply>> futs;
      for (int i = 0; i < kPerSubmitter; ++i) {
        futs.push_back(
            svc.submit(rng() % net.num_nodes(), rng() % net.num_nodes()));
      }
      for (auto& f : futs) {
        const RouteReply r = f.get();  // every future resolves — no loss
        if (r.status == ServeStatus::kOk) {
          ++ok;
        } else if (r.status == ServeStatus::kShedRate ||
                   r.status == ServeStatus::kShedLoad) {
          ++shed;
        } else {
          ++other;
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  const std::uint64_t offered = kSubmitters * kPerSubmitter;
  EXPECT_EQ(ok.load() + shed.load() + other.load(), offered);
  EXPECT_GT(shed.load(), 0u);  // 8000 instant submits >> 2000 qps budget
  EXPECT_EQ(other.load(), 0u);
  svc.drain();
  const ServiceStatsSnapshot snap = svc.snapshot();
  EXPECT_EQ(snap.offered, offered);
  EXPECT_EQ(snap.completed_ok, ok.load());
  EXPECT_EQ(snap.shed_load + snap.shed_rate, shed.load());
  expect_conserved(snap);
}

TEST(RouteService, TrySubmitShedsOnFullQueueInsteadOfBlocking) {
  const NetworkSpec net = make_macro_star(2, 2);
  RouteServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  cfg.max_batch = 2;
  cfg.linger_us = 50'000;  // keep the worker lingering while we overfill
  RouteService svc(net, cfg);
  std::vector<std::future<RouteReply>> futs;
  for (int i = 0; i < 64; ++i) futs.push_back(svc.try_submit(1, 2));
  std::uint64_t ok = 0, shed = 0;
  for (auto& f : futs) {
    const RouteReply r = f.get();
    r.status == ServeStatus::kOk ? ++ok : ++shed;
  }
  EXPECT_EQ(ok + shed, 64u);
  expect_conserved(svc.snapshot());
}

TEST(RouteService, SolvesARepeatedRelativePermutationOnce) {
  // Left translation preserves W = V^{-1}∘U: the n distinct pairs
  // (σ∘U, σ∘V) all share one W.  Keyed dispatch sends every copy to one
  // worker, whose in-order batch caches the first solve before the next
  // copy looks it up — within a batch as much as across batches.
  const NetworkSpec net = make_macro_star(2, 2);
  RouteServiceConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 64;
  cfg.linger_us = 20'000;
  RouteService svc(net, cfg);
  const Permutation u = Permutation::unrank(net.k(), 3);
  const Permutation v = Permutation::unrank(net.k(), 77);
  constexpr std::uint64_t kPairs = 64;
  std::vector<std::pair<Permutation, Permutation>> pairs;
  std::vector<std::future<RouteReply>> futs;
  for (std::uint64_t i = 0; i < kPairs; ++i) {
    const Permutation sigma = Permutation::unrank(net.k(), i);
    pairs.emplace_back(u.relabel_symbols(sigma), v.relabel_symbols(sigma));
    futs.push_back(
        svc.submit(pairs.back().first.rank(), pairs.back().second.rank()));
  }
  for (std::uint64_t i = 0; i < kPairs; ++i) {
    const RouteReply reply = futs[i].get();
    ASSERT_EQ(reply.status, ServeStatus::kOk);
    EXPECT_EQ(reply.word, route(net, pairs[i].first, pairs[i].second)) << i;
  }
  svc.drain();
  const ServiceStatsSnapshot snap = svc.snapshot();
  EXPECT_EQ(snap.cache.misses, 1u);
  EXPECT_EQ(snap.cache.hits, kPairs - 1);
  EXPECT_EQ(snap.completed_ok, kPairs);
  expect_conserved(snap);
}

TEST(RouteService, ShutdownCompletesEveryAcceptedRequest) {
  const NetworkSpec net = make_macro_star(2, 2);
  RouteServiceConfig cfg;
  cfg.workers = 2;
  cfg.linger_us = 1000;
  RouteService svc(net, cfg);
  std::vector<std::future<RouteReply>> futs;
  std::mt19937_64 rng(11);
  for (int i = 0; i < 300; ++i) {
    futs.push_back(
        svc.submit(rng() % net.num_nodes(), rng() % net.num_nodes()));
  }
  svc.shutdown();  // races the workers mid-drain
  std::uint64_t ok = 0, closed = 0, shed = 0;
  for (auto& f : futs) {
    switch (f.get().status) {
      case ServeStatus::kOk:
        ++ok;
        break;
      case ServeStatus::kClosed:
        ++closed;
        break;
      default:
        ++shed;
        break;
    }
  }
  EXPECT_EQ(ok + closed + shed, 300u);
  EXPECT_GT(ok, 0u);  // accepted requests were drained, not abandoned
  const ServiceStatsSnapshot snap = svc.snapshot();
  EXPECT_EQ(snap.in_flight, 0u);
  expect_conserved(snap);
  // Submitting after shutdown is an explicit kClosed reply, not a hang.
  EXPECT_EQ(svc.submit(0, 1).get().status, ServeStatus::kClosed);
}

TEST(RouteService, SnapshotJsonCarriesCounters) {
  const NetworkSpec net = make_macro_star(2, 2);
  RouteService svc(net);
  (void)svc.route(0, 5);
  const std::string json = svc.snapshot().json();
  EXPECT_NE(json.find("\"offered\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("total_p99_ns"), std::string::npos);
  EXPECT_NE(json.find("occupancy_mean"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

// ---------------------------------------------------------------------------
// Load generator
// ---------------------------------------------------------------------------

TEST(LoadGen, ClosedLoopConservesAndMeasures) {
  const NetworkSpec net = make_macro_star(2, 2);
  RouteService svc(net);
  const auto pairs = random_traffic_pairs(net.num_nodes(), 8, /*seed=*/5);
  LoadGenConfig cfg;
  cfg.mode = LoadGenConfig::Mode::kClosed;
  cfg.concurrency = 4;
  const LoadGenReport rep = run_loadgen(svc, pairs, cfg);
  EXPECT_EQ(rep.offered, pairs.size());
  EXPECT_EQ(rep.ok, pairs.size());
  EXPECT_TRUE(rep.conserved());
  EXPECT_GT(rep.latency.count, 0u);
  EXPECT_GT(rep.latency.p99, 0u);
  EXPECT_GT(rep.achieved_qps, 0.0);
}

TEST(LoadGen, OpenLoopPoissonConserves) {
  const NetworkSpec net = make_macro_star(2, 2);
  RouteService svc(net);
  const auto pairs = random_traffic_pairs(net.num_nodes(), 2, /*seed=*/6);
  LoadGenConfig cfg;
  cfg.mode = LoadGenConfig::Mode::kOpen;
  cfg.offered_qps = 200'000;  // fast arrivals, test stays quick
  const LoadGenReport rep = run_loadgen(svc, pairs, cfg);
  EXPECT_EQ(rep.offered, pairs.size());
  EXPECT_TRUE(rep.conserved());
  EXPECT_GT(rep.ok, 0u);
}

}  // namespace
}  // namespace scg
