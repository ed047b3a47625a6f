// RouteEngine throughput harness: scalar route() vs zero-allocation batch
// solving vs relative-permutation cache hits, per family, plus the
// end-to-end MCMP effect (packet generation through the engine must produce
// byte-identical paths — and therefore an identical EventSimResult —
// measurably faster than the legacy per-pair route_trace path).  Writes
// bench/baseline_engine.json, or checks a run against it with --check FILE
// (bench/json_out.hpp).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <random>
#include <vector>

#include "json_out.hpp"
#include "networks/route_engine.hpp"
#include "networks/router.hpp"
#include "sim/event_core.hpp"
#include "sim/workloads.hpp"
#include "topology/metrics.hpp"

namespace {

using benchjson::exact;
using benchjson::info;
using benchjson::rate;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct PairList {
  std::vector<std::uint64_t> src;
  std::vector<std::uint64_t> dst;
};

PairList random_pairs(const scg::NetworkSpec& net, std::size_t count,
                      std::uint64_t seed) {
  const std::uint64_t n = net.num_nodes();
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint64_t> pick(0, n - 1);
  PairList pairs;
  pairs.src.reserve(count);
  pairs.dst.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t s = pick(rng);
    std::uint64_t d = pick(rng);
    if (d == s) d = (d + 1) % n;
    pairs.src.push_back(s);
    pairs.dst.push_back(d);
  }
  return pairs;
}

/// One family: scalar vs batch (cache off — the allocation/precompute win
/// alone) vs cached (second pass over the same pairs, all hits).
void bench_family(const scg::NetworkSpec& net, std::size_t count,
                  benchjson::Json& json) {
  const PairList pairs = random_pairs(net, count, /*seed=*/42);
  const int k = net.k();

  // Scalar: the public allocating API, endpoints unranked per call (the
  // batch path unranks internally, so both sides pay it).
  std::uint64_t scalar_hops = 0;
  for (std::size_t i = 0; i < count; ++i) {  // warm-up pass
    scalar_hops += scg::route(net, scg::Permutation::unrank(k, pairs.src[i]),
                              scg::Permutation::unrank(k, pairs.dst[i]))
                       .size();
  }
  const Clock::time_point t_scalar = Clock::now();
  std::uint64_t scalar_hops2 = 0;
  for (std::size_t i = 0; i < count; ++i) {
    scalar_hops2 += scg::route(net, scg::Permutation::unrank(k, pairs.src[i]),
                               scg::Permutation::unrank(k, pairs.dst[i]))
                        .size();
  }
  const double scalar_s = seconds_since(t_scalar);

  // Batch, cache disabled: pure zero-allocation + precomputation win.
  const scg::RouteEngine raw(net,
                             scg::RouteEngineConfig{.cache_capacity = 0});
  scg::RouteBatch batch;
  raw.route_batch(pairs.src, pairs.dst, batch);  // warm the arenas
  const Clock::time_point t_batch = Clock::now();
  raw.route_batch(pairs.src, pairs.dst, batch);
  const double batch_s = seconds_since(t_batch);
  const std::uint64_t batch_hops = batch.total_length();

  // Cached: first pass fills the relative-permutation cache, second pass is
  // all hits.
  const scg::RouteEngine cached(net);
  cached.route_batch(pairs.src, pairs.dst, batch);
  const Clock::time_point t_cached = Clock::now();
  cached.route_batch(pairs.src, pairs.dst, batch);
  const double cached_s = seconds_since(t_cached);
  const scg::RouteCacheStats stats = cached.cache_stats();

  const double scalar_rps = static_cast<double>(count) / scalar_s;
  const double batch_rps = static_cast<double>(count) / batch_s;
  const double cached_rps = static_cast<double>(count) / cached_s;
  const bool hops_agree =
      scalar_hops == scalar_hops2 && scalar_hops == batch_hops;

  std::printf("%-18s k=%-2d pairs=%-6zu scalar=%-10.0f batch=%-10.0f "
              "cached=%-10.0f r/s  batch-x=%-5.2f cached-x=%-6.2f %s\n",
              net.name.c_str(), k, count, scalar_rps, batch_rps, cached_rps,
              batch_rps / scalar_rps, cached_rps / scalar_rps,
              hops_agree ? "" : "HOP MISMATCH!");

  // cache_hits is info: chunks racing on the same W can both miss.
  json.row({exact("name", net.name), exact("k", k), exact("pairs", count),
            rate("scalar_rps", scalar_rps), rate("batch_rps", batch_rps),
            rate("cached_rps", cached_rps),
            rate("batch_speedup", batch_rps / scalar_rps),
            rate("cached_speedup", cached_rps / scalar_rps),
            exact("total_hops", batch_hops), info("cache_hits", stats.hits),
            exact("hops_agree", hops_agree)});
}

/// Flow traffic: `flows` distinct (src, dst) pairs, each carrying
/// `per_flow` packets, interleaved.  This is the standard flow-based MCMP
/// workload, and it is where the batch API structurally beats the scalar
/// one: route_batch dedups repeated relative permutations through the
/// cache, while the stateless route() re-solves every packet.
PairList flow_pairs(const scg::NetworkSpec& net, std::size_t flows,
                    std::size_t per_flow, std::uint64_t seed) {
  const PairList heads = random_pairs(net, flows, seed);
  std::vector<std::size_t> order(flows * per_flow);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i % flows;
  std::mt19937_64 rng(seed ^ 0x5bd1e995u);
  std::shuffle(order.begin(), order.end(), rng);
  PairList pairs;
  pairs.src.reserve(order.size());
  pairs.dst.reserve(order.size());
  for (const std::size_t f : order) {
    pairs.src.push_back(heads.src[f]);
    pairs.dst.push_back(heads.dst[f]);
  }
  return pairs;
}

/// One family under flow traffic: the as-shipped batch API (default
/// config, cold cache at the start of the timed pass) against scalar
/// route() over the identical packet list.
void bench_family_flows(const scg::NetworkSpec& net, std::size_t flows,
                        std::size_t per_flow, benchjson::Json& json) {
  const PairList pairs = flow_pairs(net, flows, per_flow, /*seed=*/42);
  const std::size_t count = pairs.src.size();
  const int k = net.k();

  std::uint64_t scalar_hops = 0;
  for (std::size_t i = 0; i < count; ++i) {  // warm-up pass
    scalar_hops += scg::route(net, scg::Permutation::unrank(k, pairs.src[i]),
                              scg::Permutation::unrank(k, pairs.dst[i]))
                       .size();
  }
  const Clock::time_point t_scalar = Clock::now();
  std::uint64_t scalar_hops2 = 0;
  for (std::size_t i = 0; i < count; ++i) {
    scalar_hops2 += scg::route(net, scg::Permutation::unrank(k, pairs.src[i]),
                               scg::Permutation::unrank(k, pairs.dst[i]))
                        .size();
  }
  const double scalar_s = seconds_since(t_scalar);

  // Default engine, cache cold: the timed pass pays every miss itself.
  const scg::RouteEngine engine(net);
  scg::RouteBatch batch;
  const Clock::time_point t_batch = Clock::now();
  engine.route_batch(pairs.src, pairs.dst, batch);
  const double batch_s = seconds_since(t_batch);
  const std::uint64_t batch_hops = batch.total_length();
  const scg::RouteCacheStats stats = engine.cache_stats();

  const double scalar_rps = static_cast<double>(count) / scalar_s;
  const double batch_rps = static_cast<double>(count) / batch_s;
  const bool hops_agree =
      scalar_hops == scalar_hops2 && scalar_hops == batch_hops;

  std::printf("%-18s k=%-2d flows=%-5zu pkts=%-6zu scalar=%-10.0f "
              "batch=%-10.0f r/s  batch-x=%-5.2f hits=%llu %s\n",
              net.name.c_str(), k, flows, count, scalar_rps, batch_rps,
              batch_rps / scalar_rps,
              static_cast<unsigned long long>(stats.hits),
              hops_agree ? "" : "HOP MISMATCH!");

  json.row({exact("name", net.name), exact("k", k), exact("flows", flows),
            exact("pairs", count), rate("scalar_rps", scalar_rps),
            rate("batch_rps", batch_rps),
            rate("batch_speedup", batch_rps / scalar_rps),
            exact("total_hops", batch_hops), info("cache_hits", stats.hits),
            exact("hops_agree", hops_agree)});
}

/// Thread sweep over one family (cache off, so the scaling is the solver
/// fan-out, not cache luck).
void bench_threads(const scg::NetworkSpec& net, std::size_t count,
                   benchjson::Json& json) {
  const PairList pairs = random_pairs(net, count, /*seed=*/42);
  const scg::RouteEngine raw(net,
                             scg::RouteEngineConfig{.cache_capacity = 0});
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    scg::ThreadPool pool(threads);
    scg::RouteBatch batch;
    raw.route_batch(pairs.src, pairs.dst, batch, &pool);  // warm
    const Clock::time_point t0 = Clock::now();
    raw.route_batch(pairs.src, pairs.dst, batch, &pool);
    const double rps = static_cast<double>(count) / seconds_since(t0);
    std::printf("%-18s threads=%zu batch=%-10.0f r/s\n", net.name.c_str(),
                threads, rps);
    json.row({exact("name", net.name), exact("threads", threads),
              rate("batch_rps", rps)});
  }
}

/// Legacy packet for one pair (the pre-engine workloads.cpp path): one
/// route_trace, states ranked into the path.
scg::SimPacket legacy_packet(const scg::NetworkSpec& net, std::uint64_t s,
                             std::uint64_t d) {
  scg::SimPacket p;
  p.src = s;
  p.dst = d;
  const scg::GameTrace trace =
      scg::route_trace(net, scg::Permutation::unrank(net.k(), s),
                       scg::Permutation::unrank(net.k(), d));
  p.path.reserve(trace.states.size());
  for (const scg::Permutation& state : trace.states) {
    p.path.push_back(static_cast<std::uint32_t>(state.rank()));
  }
  return p;
}

std::vector<scg::SimPacket> legacy_total_exchange(const scg::NetworkSpec& net) {
  const std::uint64_t n = net.num_nodes();
  std::vector<scg::SimPacket> packets;
  packets.reserve(n * (n - 1));
  for (std::uint64_t s = 0; s < n; ++s) {
    for (std::uint64_t d = 0; d < n; ++d) {
      if (s != d) packets.push_back(legacy_packet(net, s, d));
    }
  }
  return packets;
}

std::vector<scg::SimPacket> legacy_random_traffic(const scg::NetworkSpec& net,
                                                  int per_node,
                                                  std::uint64_t seed) {
  const std::uint64_t n = net.num_nodes();
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint64_t> pick(0, n - 1);
  std::vector<scg::SimPacket> packets;
  packets.reserve(n * static_cast<std::uint64_t>(per_node));
  for (std::uint64_t s = 0; s < n; ++s) {
    for (int i = 0; i < per_node; ++i) {
      std::uint64_t d = pick(rng);
      if (d == s) d = (d + 1) % n;
      packets.push_back(legacy_packet(net, s, d));
    }
  }
  return packets;
}

scg::EventSimResult run_sim(const scg::NetworkSpec& net,
                            const std::vector<scg::SimPacket>& packets) {
  const scg::Graph g = scg::materialize(net);
  scg::EventSimConfig cfg;
  cfg.offchip_cycles_per_flit = std::max(1, net.intercluster_degree());
  return scg::simulate_events(g, scg::mcmp_offchip_table(net, g), packets,
                              cfg);
}

bool same_result(const scg::EventSimResult& a, const scg::EventSimResult& b) {
  return a.completion_cycles == b.completion_cycles &&
         a.avg_latency == b.avg_latency && a.packets == b.packets &&
         a.total_hops == b.total_hops && a.offchip_hops == b.offchip_hops &&
         a.max_link_busy == b.max_link_busy;
}

template <typename LegacyGen, typename EngineGen>
void bench_mcmp(const scg::NetworkSpec& net, const char* workload,
                LegacyGen&& legacy_gen, EngineGen&& engine_gen,
                benchjson::Json& json) {
  const Clock::time_point t_legacy = Clock::now();
  const std::vector<scg::SimPacket> legacy = legacy_gen();
  const double legacy_s = seconds_since(t_legacy);

  const Clock::time_point t_engine = Clock::now();
  const std::vector<scg::SimPacket> batched = engine_gen();
  const double engine_s = seconds_since(t_engine);

  bool paths_identical = legacy.size() == batched.size();
  for (std::size_t i = 0; paths_identical && i < legacy.size(); ++i) {
    paths_identical = legacy[i].src == batched[i].src &&
                      legacy[i].dst == batched[i].dst &&
                      legacy[i].path == batched[i].path;
  }
  const scg::EventSimResult legacy_r = run_sim(net, legacy);
  const scg::EventSimResult batched_r = run_sim(net, batched);
  const bool results_identical = same_result(legacy_r, batched_r);

  std::printf("%-10s %-5s legacy-gen=%.4fs engine-gen=%.4fs (%.2fx)  "
              "paths-identical=%s  sim-identical=%s cycles=%llu\n",
              net.name.c_str(), workload, legacy_s, engine_s,
              legacy_s / engine_s, paths_identical ? "yes" : "NO",
              results_identical ? "yes" : "NO",
              static_cast<unsigned long long>(batched_r.completion_cycles));

  json.row({exact("name", net.name), exact("workload", std::string(workload)),
            exact("packets", batched.size()), info("legacy_gen_s", legacy_s),
            info("engine_gen_s", engine_s),
            rate("gen_speedup", legacy_s / engine_s),
            exact("paths_identical", paths_identical),
            exact("sim_identical", results_identical),
            exact("completion_cycles", batched_r.completion_cycles)});
}

}  // namespace

int main(int argc, char** argv) {
  benchjson::Json json(argc, argv, "bench/baseline_engine.json");

  std::printf("=== RouteEngine throughput: scalar vs batch vs cached ===\n");
  json.begin_array("throughput");
  bench_family(scg::make_star_graph(7), 20000, json);
  bench_family(scg::make_macro_star(2, 3), 20000, json);
  bench_family(scg::make_macro_star(3, 2), 20000, json);
  bench_family(scg::make_complete_rotation_star(3, 2), 20000, json);
  bench_family(scg::make_macro_rotator(3, 2), 20000, json);
  bench_family(scg::make_macro_is(3, 2), 20000, json);
  bench_family(scg::make_rotation_is(3, 2), 20000, json);
  bench_family(scg::make_insertion_selection(7), 20000, json);
  bench_family(scg::make_rotator_graph(7), 20000, json);
  bench_family(scg::make_bubble_sort_graph(7), 20000, json);
  bench_family(scg::make_transposition_network(7), 20000, json);
  // k = 9 families: the recursive macro-star is where precomputed nucleus
  // expansions pay (the scalar router re-derives them every call).
  bench_family(scg::make_recursive_macro_star(2, 2, 2), 10000, json);
  bench_family(scg::make_recursive_macro_star(2, 2, 3), 5000, json);
  bench_family(scg::make_complete_rotation_star(4, 2), 10000, json);

  std::printf("\n=== Flow traffic: as-shipped batch API vs scalar ===\n");
  json.begin_array("flow_throughput");
  bench_family_flows(scg::make_macro_star(3, 2), 2000, 10, json);
  bench_family_flows(scg::make_complete_rotation_star(4, 2), 2000, 10, json);
  bench_family_flows(scg::make_recursive_macro_star(2, 2, 2), 2000, 10, json);

  std::printf("\n=== Batch thread sweep (cache off) ===\n");
  json.begin_array("threads");
  bench_threads(scg::make_macro_star(3, 2), 20000, json);

  std::printf("\n=== End-to-end MCMP: legacy vs engine packet generation ===\n");
  json.begin_array("mcmp");
  {
    // Total exchange is the cache's best case: N(N-1) packets share only
    // N-1 relative displacements.
    const scg::NetworkSpec ms22 = scg::make_macro_star(2, 2);
    bench_mcmp(
        ms22, "TE", [&] { return legacy_total_exchange(ms22); },
        [&] { return scg::total_exchange_packets(ms22); }, json);
    const scg::NetworkSpec ms51 = scg::make_macro_star(5, 1);
    bench_mcmp(
        ms51, "rand", [&] { return legacy_random_traffic(ms51, 8, 7); },
        [&] { return scg::random_traffic_packets(ms51, 8, 7); }, json);
  }
  return json.finish();
}
