// RouteService serving benchmark: thread-scaling under closed-loop load,
// the linger-vs-latency micro-batching trade-off, and graceful overload
// shedding.  Every cell re-verifies correctness (sampled words byte-equal
// to scalar route(), offered == delivered + shed exactly).  Writes
// bench/baseline_serve.json, or checks a run against it with --check FILE
// (bench/json_out.hpp): the cell parameters and correctness flags are
// exact, serve_rps is a rate, and latencies, occupancy and hit rates are
// info.
#include <cstdio>
#include <string>
#include <vector>

#include "json_out.hpp"
#include "networks/router.hpp"
#include "serve/batcher.hpp"
#include "serve/loadgen.hpp"
#include "sim/workloads.hpp"

namespace {

using benchjson::exact;
using benchjson::info;
using benchjson::Json;
using benchjson::rate;

/// Sampled byte-identity check: every `stride`-th pair round-trips through
/// the live service and must match the scalar router exactly.
std::uint64_t words_match_scalar(scg::RouteService& svc,
                                 const std::vector<scg::TrafficPair>& pairs,
                                 std::size_t stride) {
  const scg::NetworkSpec& net = svc.spec();
  for (std::size_t i = 0; i < pairs.size(); i += stride) {
    const scg::RouteReply reply = svc.route(pairs[i].src, pairs[i].dst);
    if (reply.status != scg::ServeStatus::kOk) return 0;
    const std::vector<scg::Generator> want =
        scg::route(net, scg::Permutation::unrank(net.k(), pairs[i].src),
                   scg::Permutation::unrank(net.k(), pairs[i].dst));
    if (reply.word != want) return 0;
  }
  return 1;
}

std::uint64_t conserved(const scg::LoadGenReport& rep,
                        const scg::ServiceStatsSnapshot& snap) {
  const bool service_side =
      snap.offered == snap.completed_ok + snap.shed_load + snap.shed_rate +
                          snap.rejected_closed + snap.in_flight;
  return (rep.conserved() && service_side) ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Json json(argc, argv, "bench/baseline_serve.json");
  const scg::NetworkSpec net = scg::make_macro_star(2, 3);  // k=7, 5040 nodes
  const std::string family = "MS(2,3)";

  // -------------------------------------------------------------------
  // Thread scaling: closed loop, linger off, throughput bounded by the
  // workers' solve rate.  serve_rps is the regression-gated rate; each
  // workers cell gates against its own baseline, so the gate holds on any
  // core count (on a single-core runner the curve is flat-to-negative —
  // the sweep still proves each configuration serves correctly).
  // -------------------------------------------------------------------
  json.begin_array("thread_scaling");
  const std::vector<scg::TrafficPair> scaling_pairs =
      scg::random_traffic_pairs(net.num_nodes(), /*per_node=*/8, /*seed=*/11);
  for (const int workers : {1, 2, 4}) {
    scg::RouteServiceConfig cfg;
    cfg.workers = workers;
    cfg.max_batch = 128;
    cfg.linger_us = 0;
    // Cache off: every request pays a real solve, so the curve measures
    // worker scaling rather than the submit path.
    cfg.engine.cache_capacity = 0;
    scg::RouteService svc(net, cfg);

    scg::LoadGenConfig lg;
    lg.mode = scg::LoadGenConfig::Mode::kClosed;
    lg.concurrency = 16;
    const scg::LoadGenReport rep = run_loadgen(svc, scaling_pairs, lg);
    const std::uint64_t words_ok = words_match_scalar(svc, scaling_pairs, 512);
    const scg::ServiceStatsSnapshot snap = svc.snapshot();

    json.row({exact("name", std::string("closed_loop")),
              exact("family", family), exact("mode", std::string("closed")),
              exact("workers", workers), exact("concurrency", lg.concurrency),
              exact("offered", rep.offered),
              exact("conservation", conserved(rep, snap)),
              exact("words_ok", words_ok), rate("serve_rps", rep.achieved_qps),
              info("p50_us", static_cast<double>(rep.latency.p50) / 1e3),
              info("p99_us", static_cast<double>(rep.latency.p99) / 1e3),
              info("p999_us", static_cast<double>(rep.latency.p999) / 1e3),
              info("occupancy_mean", snap.occupancy_mean),
              info("cache_hit_rate", snap.cache_hit_rate())});
    std::printf("thread_scaling workers=%d: %.0f req/s  p99=%.0f us  "
                "occupancy=%.1f  conserved=%llu words_ok=%llu\n",
                workers, rep.achieved_qps,
                static_cast<double>(rep.latency.p99) / 1e3,
                snap.occupancy_mean,
                static_cast<unsigned long long>(conserved(rep, snap)),
                static_cast<unsigned long long>(words_ok));
  }

  // -------------------------------------------------------------------
  // Linger trade-off: open-loop Poisson arrivals at a fixed rate; a longer
  // linger builds bigger batches (higher occupancy) at the price of added
  // queueing latency.
  // -------------------------------------------------------------------
  json.begin_array("linger_tradeoff");
  const std::vector<scg::TrafficPair> linger_pairs =
      scg::random_traffic_pairs(net.num_nodes(), /*per_node=*/4, /*seed=*/23);
  for (const std::uint64_t linger_us : {0, 100, 1000}) {
    scg::RouteServiceConfig cfg;
    cfg.workers = 2;
    cfg.max_batch = 256;
    cfg.linger_us = linger_us;
    cfg.queue_capacity = 1 << 14;
    scg::RouteService svc(net, cfg);

    scg::LoadGenConfig lg;
    lg.mode = scg::LoadGenConfig::Mode::kOpen;
    lg.offered_qps = 40'000;
    lg.seed = 5;
    const scg::LoadGenReport rep = run_loadgen(svc, linger_pairs, lg);
    const scg::ServiceStatsSnapshot snap = svc.snapshot();

    json.row({exact("name", std::string("linger")), exact("family", family),
              exact("mode", std::string("open")), exact("workers", 2),
              exact("linger_us", linger_us), exact("qps", 40'000),
              exact("offered", rep.offered),
              exact("conservation", conserved(rep, snap)),
              info("p50_us", static_cast<double>(rep.latency.p50) / 1e3),
              info("p99_us", static_cast<double>(rep.latency.p99) / 1e3),
              info("occupancy_mean", snap.occupancy_mean),
              info("cache_hit_rate", snap.cache_hit_rate())});
    std::printf("linger_tradeoff linger=%llu us: p50=%.0f us  p99=%.0f us  "
                "occupancy=%.1f\n",
                static_cast<unsigned long long>(linger_us),
                static_cast<double>(rep.latency.p50) / 1e3,
                static_cast<double>(rep.latency.p99) / 1e3,
                snap.occupancy_mean);
  }

  // -------------------------------------------------------------------
  // Overload: offer 6x the admitted rate.  The service must shed the
  // excess explicitly (shed_nonzero), account for every request
  // (conservation), and keep the admitted tail bounded.
  // -------------------------------------------------------------------
  json.begin_array("overload_shedding");
  {
    scg::RouteServiceConfig cfg;
    cfg.workers = 2;
    cfg.max_batch = 128;
    cfg.linger_us = 100;
    cfg.admission.rate_limit_qps = 10'000;
    scg::RouteService svc(net, cfg);

    const std::vector<scg::TrafficPair> pairs =
        scg::random_traffic_pairs(net.num_nodes(), /*per_node=*/6, /*seed=*/31);
    scg::LoadGenConfig lg;
    lg.mode = scg::LoadGenConfig::Mode::kOpen;
    lg.offered_qps = 60'000;
    lg.seed = 9;
    const scg::LoadGenReport rep = run_loadgen(svc, pairs, lg);
    const scg::ServiceStatsSnapshot snap = svc.snapshot();
    const std::uint64_t shed_nonzero = rep.shed() > 0 ? 1 : 0;

    json.row({exact("name", std::string("overload")), exact("family", family),
              exact("mode", std::string("open")), exact("workers", 2),
              exact("qps", 60'000), exact("rate_limit", 10'000),
              exact("offered", rep.offered),
              exact("conservation", conserved(rep, snap)),
              exact("shed_nonzero", shed_nonzero),
              info("shed_fraction", snap.shed_fraction()),
              info("delivered_qps", rep.achieved_qps),
              info("admitted_p99_us",
                   static_cast<double>(snap.total.percentile(99)) / 1e3)});
    std::printf("overload_shedding: offered=%llu ok=%llu shed=%llu  "
                "admitted p99=%.0f us  conserved=%llu\n",
                static_cast<unsigned long long>(rep.offered),
                static_cast<unsigned long long>(rep.ok),
                static_cast<unsigned long long>(rep.shed()),
                static_cast<double>(snap.total.percentile(99)) / 1e3,
                static_cast<unsigned long long>(conserved(rep, snap)));
  }
  return json.finish();
}
