// Fault-tolerance evaluation: exact connectivity (edge and vertex, both ==
// degree for these Cayley graphs), Monte-Carlo survival under random
// failures, fault-aware routing degradation (delivered fraction / repairs /
// stretch vs number of failed links), node-disjoint backup paths, and MCMP
// degradation with links dying mid-run.
//
// Prints a human-readable report and writes the same numbers to
// bench/baseline_fault.json, or checks them against it with --check FILE
// (bench/json_out.hpp).  Every field is seeded and none depends on timing
// or the pool size, so every field is exact.
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "networks/fault_router.hpp"
#include "networks/route_policy.hpp"
#include "networks/router.hpp"
#include "sim/event_core.hpp"
#include "topology/baselines.hpp"
#include "topology/fault.hpp"
#include "topology/metrics.hpp"

#include "json_out.hpp"

namespace {

using scg::FaultRouter;
using scg::FaultSet;
using scg::Graph;
using scg::NetworkSpec;
using scg::RouteOutcome;

using benchjson::exact;
using benchjson::Json;

std::vector<std::pair<std::uint64_t, std::uint64_t>> links_of(const Graph& g) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> links;
  for (std::uint64_t u = 0; u < g.num_nodes(); ++u) {
    g.for_each_neighbor(u, [&](std::uint64_t v, std::int32_t) {
      if (u < v) links.emplace_back(u, v);
    });
  }
  return links;
}

void connectivity_section(Json& json) {
  std::printf("=== connectivity: edge and vertex connectivity == degree ===\n");
  json.begin_array("connectivity");
  for (const NetworkSpec& net :
       {scg::make_macro_star(2, 2), scg::make_complete_rotation_star(2, 2),
        scg::make_macro_is(2, 2), scg::make_star_graph(5),
        scg::make_macro_star(3, 1)}) {
    const Graph g = scg::materialize(net);
    const std::uint64_t ec = scg::edge_connectivity(g);
    const std::uint64_t vc = scg::vertex_connectivity(g);
    std::printf("%-20s N=%-6llu deg=%-2d edge-conn=%llu vertex-conn=%llu\n",
                net.name.c_str(),
                static_cast<unsigned long long>(g.num_nodes()), net.degree(),
                static_cast<unsigned long long>(ec),
                static_cast<unsigned long long>(vc));
    json.row({exact("name", net.name), exact("n", g.num_nodes()),
              exact("degree", net.degree()), exact("edge_connectivity", ec),
              exact("vertex_connectivity", vc)});
  }
}

void survival_section(Json& json) {
  std::printf("\n=== Monte-Carlo survival under random failures ===\n");
  json.begin_array("survival");
  for (const NetworkSpec& net :
       {scg::make_macro_star(2, 2), scg::make_complete_rotation_star(2, 2)}) {
    const Graph g = scg::materialize(net);
    const double s1 =
        scg::random_fault_survival_rate(g, 0, net.degree() - 1, 200, 7);
    const double s2 =
        scg::random_fault_survival_rate(g, 0, net.degree() + 2, 200, 7);
    const double s3 = scg::random_fault_survival_rate(g, 2, 2, 200, 7);
    std::printf("%-20s survive(deg-1 links)=%.3f (deg+2 links)=%.3f "
                "(2 nodes + 2 links)=%.3f\n",
                net.name.c_str(), s1, s2, s3);
    json.row({exact("name", net.name), exact("deg_minus_1_links", s1),
              exact("deg_plus_2_links", s2), exact("nodes2_links2", s3)});
  }
}

void routing_degradation_section(Json& json) {
  std::printf("\n=== fault-aware routing: degradation vs failed links ===\n");
  json.begin_array("routing_degradation");
  for (const NetworkSpec& net :
       {scg::make_macro_star(2, 2), scg::make_complete_rotation_star(2, 2)}) {
    const Graph g = scg::materialize(net);
    const FaultRouter router(net);
    std::mt19937_64 rng(21);
    std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
    for (int fails = 0; fails <= net.degree() + 2; ++fails) {
      const int kTrials = 30, kPairs = 20;
      std::uint64_t attempted = 0, delivered = 0, repairs = 0;
      std::uint64_t backup = 0, bfs = 0;
      double stretch_sum = 0;
      for (int trial = 0; trial < kTrials; ++trial) {
        const FaultSet faults = scg::sample_random_faults(g, 0, fails, rng);
        for (int p = 0; p < kPairs; ++p) {
          const std::uint64_t s = pick(rng), t = pick(rng);
          if (s == t) continue;
          ++attempted;
          const RouteOutcome out = router.route(s, t, faults);
          if (!out.delivered()) continue;
          ++delivered;
          repairs += static_cast<std::uint64_t>(out.repairs);
          backup += out.used_backup ? 1 : 0;
          bfs += out.used_bfs_fallback ? 1 : 0;
          const int base = scg::route_length(
              net, scg::Permutation::unrank(net.k(), s),
              scg::Permutation::unrank(net.k(), t));
          stretch_sum += static_cast<double>(out.hops()) / base;
        }
      }
      const double df = static_cast<double>(delivered) / attempted;
      const double avg_repairs = static_cast<double>(repairs) / attempted;
      const double avg_stretch = stretch_sum / delivered;
      std::printf("%-20s links_failed=%-2d delivered=%.4f avg_repairs=%.3f "
                  "avg_stretch=%.3f backup%%=%.1f bfs%%=%.1f\n",
                  net.name.c_str(), fails, df, avg_repairs, avg_stretch,
                  100.0 * backup / attempted, 100.0 * bfs / attempted);
      json.row({exact("name", net.name), exact("links_failed", fails),
                exact("delivered", df), exact("avg_repairs", avg_repairs),
                exact("avg_stretch", avg_stretch),
                exact("backup_fraction",
                      static_cast<double>(backup) / attempted),
                exact("bfs_fraction", static_cast<double>(bfs) / attempted)});
    }
  }
}

void disjoint_paths_section(Json& json) {
  std::printf("\n=== node-disjoint backup paths (max-flow construction) ===\n");
  json.begin_array("disjoint_paths");
  for (const NetworkSpec& net :
       {scg::make_macro_star(2, 2), scg::make_star_graph(5),
        scg::make_macro_is(2, 2)}) {
    std::mt19937_64 rng(31);
    std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
    std::uint64_t pairs = 0, total_paths = 0, longest = 0;
    for (int trial = 0; trial < 12; ++trial) {
      const std::uint64_t s = pick(rng);
      std::uint64_t t = pick(rng);
      while (t == s) t = pick(rng);
      const auto paths = scg::node_disjoint_paths(net, s, t);
      ++pairs;
      total_paths += paths.size();
      for (const auto& p : paths) {
        longest = std::max<std::uint64_t>(longest, p.size() - 1);
      }
    }
    const double avg = static_cast<double>(total_paths) / pairs;
    std::printf("%-20s deg=%-2d avg_disjoint_paths=%.2f longest=%llu hops\n",
                net.name.c_str(), net.degree(), avg,
                static_cast<unsigned long long>(longest));
    json.row({exact("name", net.name), exact("degree", net.degree()),
              exact("avg_disjoint_paths", avg),
              exact("longest_backup_hops", longest)});
  }
}

void mcmp_degradation_section(Json& json) {
  std::printf("\n=== MCMP degradation: links die mid-run ===\n");
  json.begin_array("mcmp_degradation");
  const NetworkSpec net = scg::make_macro_star(2, 2);
  const Graph g = scg::materialize(net);
  const FaultRouter router(net);
  const scg::Rerouter reroute = scg::make_rerouter(router);
  const scg::OffchipTable offchip = scg::mcmp_offchip_table(net, g);

  // Uniform random traffic on pristine routes from the registry's
  // fault-aware policy (an empty FaultSet plays exactly the primary
  // game-theoretic routes, so these paths match what the direct
  // FaultRouter call always produced).
  const auto policy = scg::make_route_policy("fault", net);
  std::mt19937_64 rng(47);
  std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
  std::vector<scg::SimPacket> pkts;
  while (pkts.size() < 2000) {
    const std::uint64_t s = pick(rng), t = pick(rng);
    if (s == t) continue;
    scg::SimPacket pk;
    pk.src = s;
    pk.dst = t;
    policy->route_path(s, t, pk.path);
    pk.inject_time = pkts.size() % 64;
    pkts.push_back(std::move(pk));
  }

  const auto all_links = links_of(g);
  for (const int kills : {0, 2, 8, 24}) {
    std::vector<scg::FaultEvent> schedule;
    std::mt19937_64 krng(53);
    std::uniform_int_distribution<std::size_t> pick_link(0, all_links.size() - 1);
    for (int i = 0; i < kills; ++i) {  // staggered kills while traffic flows
      const auto [u, v] = all_links[pick_link(krng)];
      schedule.push_back(
          scg::FaultEvent::link_fail(static_cast<std::uint64_t>(4 * i), u, v));
    }
    scg::EventSimConfig cfg;
    cfg.offchip_cycles_per_flit = 2;
    cfg.fault_mode = true;
    const scg::EventSimResult r =
        scg::simulate_events(g, offchip, pkts, cfg, schedule, &reroute);
    std::printf("kills=%-3d delivered=%.4f retx=%-5llu timeouts=%-5llu "
                "p50=%-4llu p99=%-4llu stretch=%.3f completion=%llu\n",
                kills, r.delivered_fraction,
                static_cast<unsigned long long>(r.retransmissions),
                static_cast<unsigned long long>(r.timeouts),
                static_cast<unsigned long long>(r.p50_latency),
                static_cast<unsigned long long>(r.p99_latency), r.avg_stretch,
                static_cast<unsigned long long>(r.completion_cycles));
    json.row({exact("name", net.name), exact("link_kills", kills),
              exact("packets", r.packets),
              exact("delivered_fraction", r.delivered_fraction),
              exact("retransmissions", r.retransmissions),
              exact("timeouts", r.timeouts),
              exact("p50_latency", r.p50_latency),
              exact("p99_latency", r.p99_latency),
              exact("avg_stretch", r.avg_stretch),
              exact("completion_cycles", r.completion_cycles),
              exact("events", r.telemetry.events_processed),
              exact("queue_peak", r.telemetry.queue_peak)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  Json json(argc, argv, "bench/baseline_fault.json");
  connectivity_section(json);
  survival_section(json);
  routing_degradation_section(json);
  disjoint_paths_section(json);
  mcmp_degradation_section(json);
  std::printf(
      "\nExpectation: edge AND vertex connectivity equal the degree\n"
      "(maximal fault tolerance), so below degree-many failures routing\n"
      "always delivers (repairs + disjoint backups), and the packet\n"
      "simulator degrades gracefully instead of losing traffic.\n");
  return json.finish();
}
