// scg_cli — command-line front end to the library.
//
//   scg_cli info <family> <l> <n>                 property sheet
//   scg_cli route <family> <l> <n> <from> <to>    play the game between nodes
//   scg_cli trace <family> <l> <n> <from>         render the play to identity
//   scg_cli dot <family> <l> <n>                  Graphviz DOT on stdout
//   scg_cli histogram <family> <l> <n>            distance histogram (TSV)
//   scg_cli families                              list known family names
//   scg_cli oracle build <family> <l> <n> <out>   build + save exact-distance table
//   scg_cli oracle query <family> <l> <n> <table> <from> <to>
//                                                 exact distance + optimal word
//   scg_cli oracle stats <family> <l> <n> [table] exact diameter/average/histogram
//   scg_cli sim <family> <l> <n> [policy] [per_node] [seed]
//                                                 random traffic through the
//                                                 event core, routed lazily
//                                                 by the named policy
//   scg_cli chaos <family> <l> <n> [policy] [per_node] [seed]
//                                                 invariant-checked
//                                                 degradation sweep: fault
//                                                 kind x rate grid with
//                                                 audited delivered-fraction
//                                                 curves ("fault" reroutes,
//                                                 "adaptive" also quarantines
//                                                 sick links)
//   scg_cli serve-bench <family> <l> <n> [workers] [requests] [qps] [seed]
//                                                 drive the concurrent
//                                                 RouteService with random
//                                                 traffic (qps=0: closed
//                                                 loop; qps>0: open-loop
//                                                 Poisson arrivals), print
//                                                 the SLO snapshot, and
//                                                 verify sampled words
//                                                 against the scalar router
//   scg_cli kernels                               SIMD permutation-kernel
//                                                 dispatch tier + micro-timings
//                                                 with scalar identity check
//   scg_cli policies                              list registered route policies
//   scg_cli paper [NAME|all]                      regenerate one (or every)
//                                                 table of EXPERIMENTS.md:
//                                                 fig4 fig5 fig6 table1 bounds
//                                                 ratios intercluster bisection
//                                                 ipg ablation collectives
//                                                 routing (scg_paper.cpp)
//
// <family> ∈ {MS, RS, cRS, MR, RR, cRR, IS, MIS, RIS, cRIS, star, rotator,
//             pancake, bubble, transposition}; permutations are digit
//             strings like 5342671 (k <= 9).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include <numeric>
#include <random>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/formulas.hpp"
#include "core/perm_kernels.hpp"
#include "chaos/adaptive_policy.hpp"
#include "chaos/campaign.hpp"
#include "networks/oracle_policy.hpp"
#include "networks/route_policy.hpp"
#include "networks/router.hpp"
#include "oracle/oracle.hpp"
#include "serve/batcher.hpp"
#include "serve/loadgen.hpp"
#include "sim/event_core.hpp"
#include "sim/workloads.hpp"
#include "topology/io.hpp"
#include "topology/metrics.hpp"

int cmd_paper(const std::string& name);  // scg_paper.cpp

namespace {

scg::NetworkSpec make(const std::string& family, int l, int n) {
  // The single-k families take k = l*n+1.  Form it in 64 bits so no input
  // overflows it, and cap it at kMaxSymbols + 1, which every builder
  // rejects, so an oversize k never builds a huge generator list.
  const int k = static_cast<int>(std::min<std::int64_t>(
      std::int64_t{l} * n + 1, scg::kMaxSymbols + 1));
  if (family == "MS") return scg::make_macro_star(l, n);
  if (family == "RS") return scg::make_rotation_star(l, n);
  if (family == "cRS") return scg::make_complete_rotation_star(l, n);
  if (family == "MR") return scg::make_macro_rotator(l, n);
  if (family == "RR") return scg::make_rotation_rotator(l, n);
  if (family == "cRR") return scg::make_complete_rotation_rotator(l, n);
  if (family == "IS") return scg::make_insertion_selection(k);
  if (family == "MIS") return scg::make_macro_is(l, n);
  if (family == "RIS") return scg::make_rotation_is(l, n);
  if (family == "cRIS") return scg::make_complete_rotation_is(l, n);
  if (family == "star") return scg::make_star_graph(k);
  if (family == "rotator") return scg::make_rotator_graph(k);
  if (family == "pancake") return scg::make_pancake_graph(k);
  if (family == "bubble") return scg::make_bubble_sort_graph(k);
  if (family == "transposition") return scg::make_transposition_network(k);
  throw std::invalid_argument("unknown family '" + family +
                              "' (try: scg_cli families)");
}

int cmd_info(const scg::NetworkSpec& net) {
  std::printf("%s: k=%d, N=%llu, degree=%d (%d nucleus + %d intercluster), %s\n",
              net.name.c_str(), net.k(),
              static_cast<unsigned long long>(net.num_nodes()), net.degree(),
              net.nucleus_degree(), net.intercluster_degree(),
              net.directed ? "directed" : "undirected");
  std::printf("generators:");
  for (const scg::Generator& g : net.generators) std::printf(" %s", g.name().c_str());
  std::printf("\ndiameter bound: %d\n", scg::diameter_upper_bound(net));
  if (net.num_nodes() <= 4'000'000) {
    const scg::DistanceStats s = scg::network_distance_stats(net);
    std::printf("exact diameter: %d   average distance: %.3f   alpha: %.3f\n",
                s.eccentricity, s.average,
                scg::diameter_ratio(s.eccentricity,
                                    static_cast<double>(net.num_nodes()),
                                    net.degree()));
  }
  return 0;
}

int cmd_route(const scg::NetworkSpec& net, const std::string& from_s,
              const std::string& to_s) {
  const scg::Permutation from = scg::Permutation::parse(from_s);
  const scg::Permutation to = scg::Permutation::parse(to_s);
  const auto word = scg::route(net, from, to);
  std::printf("%s -> %s in %zu hops:", from_s.c_str(), to_s.c_str(), word.size());
  for (const scg::Generator& g : word) std::printf(" %s", g.name().c_str());
  std::printf("\n");
  const std::string err = scg::check_route(net, from, to, word);
  if (!err.empty()) {
    std::fprintf(stderr, "internal error: %s\n", err.c_str());
    return 1;
  }
  return 0;
}

int cmd_trace(const scg::NetworkSpec& net, const std::string& from_s) {
  const scg::Permutation from = scg::Permutation::parse(from_s);
  const scg::GameTrace t =
      scg::route_trace(net, from, scg::Permutation::identity(net.k()));
  std::printf("%s", t.render(net.l, net.n).c_str());
  std::printf("solved in %d steps\n", t.steps());
  return 0;
}

void print_oracle_stats(const scg::DistanceOracle& oracle) {
  std::printf("states=%llu reachable=%llu exact-diameter=%d "
              "avg-distance=%.4f\n",
              static_cast<unsigned long long>(oracle.num_states()),
              static_cast<unsigned long long>(oracle.reachable_states()),
              oracle.diameter(), oracle.average_distance());
  scg::DistanceStats stats;
  stats.nodes = oracle.num_states();
  stats.reachable = oracle.reachable_states();
  stats.eccentricity = oracle.diameter();
  stats.average = oracle.average_distance();
  stats.histogram = oracle.histogram();
  scg::write_histogram_tsv(std::cout, stats);
}

int cmd_oracle(int argc, char** argv) {
  if (argc < 6) {
    std::fprintf(stderr,
                 "usage: scg_cli oracle build <family> <l> <n> <out>\n"
                 "       scg_cli oracle query <family> <l> <n> <table> <from> <to>\n"
                 "       scg_cli oracle stats <family> <l> <n> [table]\n");
    return 2;
  }
  const std::string sub = argv[2];
  const scg::NetworkSpec net = make(argv[3], std::atoi(argv[4]), std::atoi(argv[5]));
  if (sub == "build") {
    if (argc < 7) {
      std::fprintf(stderr, "usage: scg_cli oracle build <family> <l> <n> <out>\n");
      return 2;
    }
    const auto t0 = std::chrono::steady_clock::now();
    const scg::DistanceOracle oracle = scg::DistanceOracle::build(net);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    oracle.save(argv[6]);
    std::printf("%s: built %llu states in %.3fs (%.2fM states/s), wrote %s\n",
                net.name.c_str(),
                static_cast<unsigned long long>(oracle.num_states()), secs,
                static_cast<double>(oracle.num_states()) / secs / 1e6,
                argv[6]);
    std::printf("exact-diameter=%d avg-distance=%.4f\n", oracle.diameter(),
                oracle.average_distance());
    return 0;
  }
  if (sub == "query") {
    if (argc < 9) {
      std::fprintf(stderr,
                   "usage: scg_cli oracle query <family> <l> <n> <table> "
                   "<from> <to>\n");
      return 2;
    }
    const scg::DistanceOracle oracle = scg::DistanceOracle::load(argv[6], net);
    const scg::Permutation from = scg::Permutation::parse(argv[7]);
    const scg::Permutation to = scg::Permutation::parse(argv[8]);
    const int d = oracle.exact_distance(from, to);
    if (d < 0) {
      std::printf("%s -> %s: unreachable\n", argv[7], argv[8]);
      return 1;
    }
    const auto word = oracle.optimal_route(from, to);
    std::printf("%s -> %s: exact distance %d, optimal play:", argv[7],
                argv[8], d);
    for (const scg::Generator& g : word) std::printf(" %s", g.name().c_str());
    std::printf("\n");
    const std::string err = scg::check_route(net, from, to, word);
    if (!err.empty()) {
      std::fprintf(stderr, "internal error: %s\n", err.c_str());
      return 1;
    }
    const int game = scg::route_length(net, from, to);
    std::printf("game router: %d hops (gap %d)\n", game, game - d);
    return 0;
  }
  if (sub == "stats") {
    if (argc >= 7) {
      print_oracle_stats(scg::DistanceOracle::load(argv[6], net));
    } else {
      print_oracle_stats(scg::DistanceOracle::build(net));
    }
    return 0;
  }
  std::fprintf(stderr, "unknown oracle subcommand '%s'\n", sub.c_str());
  return 2;
}

int cmd_sim(const scg::NetworkSpec& net, const std::string& policy_name,
            int per_node, std::uint64_t seed) {
  const scg::Graph g = scg::materialize(net);
  const auto policy = scg::make_route_policy(policy_name, net);
  const auto pairs = scg::random_traffic_pairs(net.num_nodes(), per_node, seed);
  scg::EventSimConfig cfg;
  cfg.offchip_cycles_per_flit = std::max(1, net.intercluster_degree());
  const scg::EventSimResult r = scg::simulate_events(
      g, scg::mcmp_offchip_table(net, g), pairs, *policy, cfg);
  std::printf("%s: N=%llu, %d packets/node via '%s' (lazy, chunk %zu)\n",
              net.name.c_str(),
              static_cast<unsigned long long>(net.num_nodes()), per_node,
              policy->name().c_str(), cfg.route_chunk);
  std::printf("completion=%llu cycles  avg-latency=%.1f  total-hops=%llu  "
              "offchip-hops=%llu  max-link-busy=%.0f\n",
              static_cast<unsigned long long>(r.completion_cycles),
              r.avg_latency, static_cast<unsigned long long>(r.total_hops),
              static_cast<unsigned long long>(r.offchip_hops), r.max_link_busy);
  std::printf("telemetry: events=%llu queue-peak=%llu route-chunks=%llu "
              "cache-hit=%.1f%%\n",
              static_cast<unsigned long long>(r.telemetry.events_processed),
              static_cast<unsigned long long>(r.telemetry.queue_peak),
              static_cast<unsigned long long>(r.telemetry.route_chunks),
              100.0 * r.telemetry.cache_hit_rate());
  return 0;
}

int cmd_chaos(const scg::NetworkSpec& net, const std::string& policy_name,
              int per_node, std::uint64_t seed) {
  scg::CampaignConfig cfg;
  cfg.policy = policy_name;
  cfg.packets_per_node = per_node;
  cfg.seed = seed;
  const scg::CampaignResult r = scg::run_campaign({net}, cfg);
  std::printf("%s: %d packets/node, policy '%s' — degradation curves\n",
              net.name.c_str(), per_node, policy_name.c_str());
  std::printf("%-10s %5s %5s %9s %6s %6s %6s %6s %5s\n", "kind", "rate",
              "count", "delivered", "retx", "p99", "stretch", "quar",
              "audit");
  for (const scg::CampaignCell& c : r.cells) {
    std::printf("%-10s %5.2f %5d %9.4f %6llu %6llu %6.3f %6llu %5s\n",
                scg::fault_kind_name(c.kind), c.rate, c.count,
                c.result.delivered_fraction,
                static_cast<unsigned long long>(c.result.retransmissions),
                static_cast<unsigned long long>(c.result.p99_latency),
                c.result.avg_stretch,
                static_cast<unsigned long long>(c.quarantines),
                c.invariants.ok() ? "ok" : "FAIL");
  }
  std::printf("invariant checks: %llu violations across %zu cells\n",
              static_cast<unsigned long long>(r.total_violations),
              r.cells.size());
  return r.total_violations == 0 ? 0 : 1;
}

int cmd_serve_bench(const scg::NetworkSpec& net, int workers,
                    std::uint64_t requests, double qps, std::uint64_t seed) {
  scg::RouteServiceConfig cfg;
  cfg.workers = workers;
  scg::RouteService svc(net, cfg);

  const int per_node = std::max<int>(
      1, static_cast<int>(requests / net.num_nodes()));
  const auto pairs =
      scg::random_traffic_pairs(net.num_nodes(), per_node, seed);

  scg::LoadGenConfig lg;
  if (qps > 0) {
    lg.mode = scg::LoadGenConfig::Mode::kOpen;
    lg.offered_qps = qps;
  } else {
    lg.mode = scg::LoadGenConfig::Mode::kClosed;
    lg.concurrency = 2 * workers;
  }
  lg.seed = seed;
  const scg::LoadGenReport rep = run_loadgen(svc, pairs, lg);
  const scg::ServiceStatsSnapshot snap = svc.snapshot();

  std::printf("%s: %zu requests, %d workers, %s\n", net.name.c_str(),
              pairs.size(), svc.workers(),
              qps > 0 ? "open loop (Poisson)" : "closed loop");
  std::printf("throughput=%.0f req/s  ok=%llu shed=%llu closed=%llu\n",
              rep.achieved_qps, static_cast<unsigned long long>(rep.ok),
              static_cast<unsigned long long>(rep.shed()),
              static_cast<unsigned long long>(rep.closed));
  std::printf("client latency (us): p50=%.1f p99=%.1f p999=%.1f max=%.1f\n",
              static_cast<double>(rep.latency.p50) / 1e3,
              static_cast<double>(rep.latency.p99) / 1e3,
              static_cast<double>(rep.latency.p999) / 1e3,
              static_cast<double>(rep.latency.max) / 1e3);
  std::printf("snapshot: %s\n", snap.json().c_str());

  // Invariant 1: no silent loss, client- and service-side.
  const bool service_conserved =
      snap.offered == snap.completed_ok + snap.shed_load + snap.shed_rate +
                          snap.rejected_closed + snap.in_flight;
  if (!rep.conserved() || !service_conserved) {
    std::fprintf(stderr, "serve-bench: CONSERVATION VIOLATION\n");
    return 1;
  }
  // Invariant 2: sampled responses are byte-identical to the scalar router.
  const std::size_t stride = std::max<std::size_t>(1, pairs.size() / 64);
  for (std::size_t i = 0; i < pairs.size(); i += stride) {
    const scg::RouteReply reply = svc.route(pairs[i].src, pairs[i].dst);
    const auto want =
        scg::route(net, scg::Permutation::unrank(net.k(), pairs[i].src),
                   scg::Permutation::unrank(net.k(), pairs[i].dst));
    if (reply.status != scg::ServeStatus::kOk || reply.word != want) {
      std::fprintf(stderr, "serve-bench: WORD MISMATCH at pair %zu\n", i);
      return 1;
    }
  }
  std::printf("verified: conservation ok, sampled words match scalar "
              "route()\n");
  return 0;
}

// Report the permutation-kernel dispatch tier and quick per-primitive
// micro-timings with a byte-identity check against the scalar Permutation
// ops.  A smoke-level view of bench/bench_kernels (which writes the gated
// baseline); exits non-zero if any kernel output differs.
int cmd_kernels() {
  using scg::PermBlock;
  using scg::Permutation;
  std::printf("active tier: %s\nsupported:  ",
              scg::kernel_tier_name(scg::active_kernel_tier()));
  for (const scg::KernelTier t : scg::supported_kernel_tiers()) {
    std::printf(" %s", scg::kernel_tier_name(t));
  }
  std::printf("\n\n%4s  %-8s  %12s  %s\n", "k", "op", "kernel M/s",
              "identical");
  bool all_ok = true;
  for (const int k : {9, 13, 16, 20}) {
    std::mt19937_64 rng(0x5eedULL + static_cast<std::uint64_t>(k));
    constexpr std::size_t kBatch = 2048;
    std::vector<std::uint8_t> sym(static_cast<std::size_t>(k));
    std::vector<Permutation> as, bs;
    for (std::size_t i = 0; i < 2 * kBatch; ++i) {
      std::iota(sym.begin(), sym.end(), std::uint8_t{1});
      std::shuffle(sym.begin(), sym.end(), rng);
      (i < kBatch ? as : bs).push_back(Permutation::from_symbols(sym));
    }
    std::uniform_int_distribution<std::uint64_t> pick(0,
                                                      scg::factorial(k) - 1);
    std::vector<std::uint64_t> ranks(kBatch);
    for (std::uint64_t& r : ranks) r = pick(rng);
    PermBlock a, b, out;
    a.resize(k, kBatch);
    b.resize(k, kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      a.set(i, as[i]);
      b.set(i, bs[i]);
    }
    const auto report = [&](const char* op, auto&& kernel, auto&& check) {
      using Clock = std::chrono::steady_clock;
      kernel();  // warm up
      double best = 1e300;
      for (int trial = 0; trial < 4; ++trial) {
        const auto t0 = Clock::now();
        for (int rep = 0; rep < 4; ++rep) kernel();
        best = std::min(best,
                        std::chrono::duration<double>(Clock::now() - t0).count());
      }
      const bool ok = check();
      all_ok = all_ok && ok;
      std::printf("%4d  %-8s  %12.2f  %s\n", k, op,
                  static_cast<double>(4 * kBatch) / best / 1e6,
                  ok ? "yes" : "NO");
    };
    report(
        "relabel", [&] { scg::perm_kernels::relabel(a, b, out); },
        [&] {
          for (std::size_t i = 0; i < kBatch; ++i) {
            if (out.get(i) != as[i].relabel_symbols(bs[i])) return false;
          }
          return true;
        });
    report(
        "inverse", [&] { scg::perm_kernels::inverse(a, out); },
        [&] {
          for (std::size_t i = 0; i < kBatch; ++i) {
            if (out.get(i) != as[i].inverse()) return false;
          }
          return true;
        });
    report(
        "unrank", [&] { scg::perm_kernels::unrank(k, ranks, out); },
        [&] {
          for (std::size_t i = 0; i < kBatch; ++i) {
            if (out.get(i) != Permutation::unrank(k, ranks[i])) return false;
          }
          return true;
        });
    std::vector<std::uint64_t> got(kBatch);
    report(
        "rank", [&] { scg::perm_kernels::rank(a, got); },
        [&] {
          for (std::size_t i = 0; i < kBatch; ++i) {
            if (got[i] != as[i].rank()) return false;
          }
          return true;
        });
  }
  if (!all_ok) {
    std::fprintf(stderr, "FAIL: kernel output differs from scalar ops\n");
    return 1;
  }
  return 0;
}

int run(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: scg_cli info|route|trace|dot|histogram|sim|chaos|"
                 "serve-bench|kernels|families|policies|paper ...\n");
    return 2;
  }
  scg::register_oracle_policy();    // make "oracle" selectable by name
  scg::register_adaptive_policy();  // make "adaptive" selectable by name
  const std::string cmd = argv[1];
  if (cmd == "oracle") return cmd_oracle(argc, argv);
  if (cmd == "families") {
    std::printf("MS RS cRS MR RR cRR IS MIS RIS cRIS star rotator pancake "
                "bubble transposition\n");
    return 0;
  }
  if (cmd == "policies") {
    for (const std::string& name : scg::route_policy_names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (cmd == "kernels") return cmd_kernels();
  if (cmd == "paper") return cmd_paper(argc > 2 ? argv[2] : "");
  if (argc < 5) {
    std::fprintf(stderr, "usage: scg_cli %s <family> <l> <n> ...\n", cmd.c_str());
    return 2;
  }
  const scg::NetworkSpec net = make(argv[2], std::atoi(argv[3]), std::atoi(argv[4]));
  if (cmd == "info") return cmd_info(net);
  if (cmd == "route") {
    if (argc < 7) {
      std::fprintf(stderr, "usage: scg_cli route <family> <l> <n> <from> <to>\n");
      return 2;
    }
    return cmd_route(net, argv[5], argv[6]);
  }
  if (cmd == "trace") {
    if (argc < 6) {
      std::fprintf(stderr, "usage: scg_cli trace <family> <l> <n> <from>\n");
      return 2;
    }
    return cmd_trace(net, argv[5]);
  }
  if (cmd == "dot") {
    if (net.num_nodes() > 50000) {
      std::fprintf(stderr, "refusing to dump %llu nodes as DOT\n",
                   static_cast<unsigned long long>(net.num_nodes()));
      return 1;
    }
    scg::write_cayley_dot(std::cout, net);
    return 0;
  }
  if (cmd == "histogram") {
    scg::write_histogram_tsv(std::cout, scg::network_distance_stats(net));
    return 0;
  }
  if (cmd == "sim") {
    const std::string policy = argc > 5 ? argv[5] : "game";
    const int per_node = argc > 6 ? std::atoi(argv[6]) : 8;
    const std::uint64_t seed =
        argc > 7 ? std::strtoull(argv[7], nullptr, 10) : 7;
    return cmd_sim(net, policy, per_node, seed);
  }
  if (cmd == "chaos") {
    const std::string policy = argc > 5 ? argv[5] : "fault";
    const int per_node = argc > 6 ? std::atoi(argv[6]) : 4;
    const std::uint64_t seed =
        argc > 7 ? std::strtoull(argv[7], nullptr, 10) : 7;
    return cmd_chaos(net, policy, per_node, seed);
  }
  if (cmd == "serve-bench") {
    const int workers = argc > 5 ? std::atoi(argv[5]) : 2;
    const std::uint64_t requests =
        argc > 6 ? std::strtoull(argv[6], nullptr, 10) : 10000;
    const double qps = argc > 7 ? std::atof(argv[7]) : 0;
    const std::uint64_t seed =
        argc > 8 ? std::strtoull(argv[8], nullptr, 10) : 7;
    return cmd_serve_bench(net, workers, requests, qps, seed);
  }
  throw std::invalid_argument("unknown command '" + cmd + "'");
}

}  // namespace

int main(int argc, char** argv) {
  // Bad input (a non-permutation, an unknown policy name, ...) surfaces as
  // a library exception; report it like any other usage error.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scg_cli: %s\n", e.what());
    return 2;
  }
}
