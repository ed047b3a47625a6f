// Section 4.3 / [36]: communication-intensive workloads on MCMPs.
// Total exchange (TE), multinode broadcast (MNB, unicast-emulated) and
// uniform random traffic on super Cayley MCMPs vs a hypercube of comparable
// size, under the constant-pinout model: every node has off-chip bandwidth
// w = 1, so an off-chip link transfers one packet every d_I cycles (d_I =
// number of off-chip links per node).  On-chip (nucleus) hops take 1 cycle.
//
// All traffic now flows through the unified event core: workloads are
// TrafficPair lists routed lazily at injection time by a RoutePolicy picked
// from the registry ("game" for Cayley specs, BFS for explicit graphs).
// The lazy_vs_prerouted section times the end-to-end acceptance workload —
// a >= 100k-packet run both ways (materialise every path up front vs route
// in chunks as traffic enters) and checks the results are identical.
// Writes bench/baseline_sim.json, or checks a run against it with --check
// FILE (bench/json_out.hpp): every simulator counter, avg_latency and
// sim_identical are exact, sim_rps and lazy_speedup are machine-speed rates.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "json_out.hpp"
#include "networks/route_policy.hpp"
#include "sim/event_core.hpp"
#include "sim/workloads.hpp"
#include "topology/baselines.hpp"
#include "topology/metrics.hpp"

namespace {

using benchjson::exact;
using benchjson::info;
using benchjson::rate;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void print_row(const std::string& name, const char* workload,
               std::uint64_t nodes, int d_i, const scg::EventSimResult& r,
               double elapsed_s) {
  std::printf("%-18s %-6s N=%-5llu d_I=%-2d cycles=%-8llu avg-lat=%-8.1f "
              "offchip-hops=%-9llu events=%-9llu %.2fs\n",
              name.c_str(), workload, static_cast<unsigned long long>(nodes),
              d_i, static_cast<unsigned long long>(r.completion_cycles),
              r.avg_latency, static_cast<unsigned long long>(r.offchip_hops),
              static_cast<unsigned long long>(r.telemetry.events_processed),
              elapsed_s);
}

void json_row(benchjson::Json& json, const std::string& name,
              const char* workload, const char* policy,
              const scg::EventSimResult& r, double elapsed_s) {
  json.row({exact("name", name), exact("workload", std::string(workload)),
            exact("policy", std::string(policy)), exact("packets", r.packets),
            exact("completion_cycles", r.completion_cycles),
            exact("total_hops", r.total_hops),
            exact("offchip_hops", r.offchip_hops),
            exact("avg_latency", r.avg_latency),
            exact("events", r.telemetry.events_processed),
            exact("queue_peak", r.telemetry.queue_peak),
            rate("sim_rps", static_cast<double>(r.packets) / elapsed_s)});
}

/// One Cayley workload through the registry's "game" policy, routed lazily
/// at injection time by the event core.
void run_cayley(const scg::NetworkSpec& net, const char* workload,
                std::vector<scg::TrafficPair> pairs, benchjson::Json& json,
                int flits = 1) {
  const scg::Graph g = scg::materialize(net);
  const scg::OffchipTable offchip = scg::mcmp_offchip_table(net, g);
  const auto policy = scg::make_route_policy("game", net);
  scg::EventSimConfig cfg;
  cfg.flits_per_packet = flits;
  cfg.onchip_cycles_per_flit = 1;
  cfg.offchip_cycles_per_flit = std::max(1, net.intercluster_degree());  // w=1
  const Clock::time_point t0 = Clock::now();
  const scg::EventSimResult r =
      scg::simulate_events(g, offchip, pairs, *policy, cfg);
  const double s = seconds_since(t0);
  print_row(net.name, workload, g.num_nodes(), net.intercluster_degree(), r, s);
  json_row(json, net.name, workload, policy->name().c_str(), r, s);
}

/// One explicit-graph workload (one node per chip: every link off-chip and
/// sharing the pin budget), BFS-routed lazily.
void run_graph(const scg::Graph& g, const std::string& name,
               const char* workload, std::vector<scg::TrafficPair> pairs,
               benchjson::Json& json, int flits = 1,
               int offchip_cycles_override = 0) {
  const scg::OffchipTable offchip = scg::OffchipTable::uniform(g, true);
  scg::BfsPolicy policy(g);
  scg::EventSimConfig cfg;
  cfg.flits_per_packet = flits;
  cfg.onchip_cycles_per_flit = 1;
  cfg.offchip_cycles_per_flit = offchip_cycles_override
                                    ? offchip_cycles_override
                                    : static_cast<int>(g.max_degree());  // w=1
  const Clock::time_point t0 = Clock::now();
  const scg::EventSimResult r =
      scg::simulate_events(g, offchip, pairs, policy, cfg);
  const double s = seconds_since(t0);
  print_row(name, workload, g.num_nodes(), cfg.offchip_cycles_per_flit, r, s);
  json_row(json, name, workload, policy.name().c_str(), r, s);
}

/// The acceptance workload: route-all-paths-up-front vs lazy injection-time
/// routing on the same >= 100k-packet traffic, end to end (both arms start
/// from the routing-free pair list and a cold route cache).  Best of two
/// runs per arm to keep the gated speedup stable.
void lazy_vs_prerouted(const scg::NetworkSpec& net, const char* workload,
                       const std::vector<scg::TrafficPair>& pairs,
                       benchjson::Json& json) {
  const scg::Graph g = scg::materialize(net);
  const scg::OffchipTable offchip = scg::mcmp_offchip_table(net, g);
  scg::EventSimConfig cfg;
  cfg.offchip_cycles_per_flit = std::max(1, net.intercluster_degree());

  double pre_s = 0, lazy_s = 0;
  scg::EventSimResult pre, lazy;
  for (int rep = 0; rep < 2; ++rep) {
    {
      scg::GamePolicy policy(net);
      const Clock::time_point t0 = Clock::now();
      const std::vector<scg::SimPacket> pkts = scg::packets_for(policy, pairs);
      pre = scg::simulate_events(g, offchip, pkts, cfg);
      const double s = seconds_since(t0);
      pre_s = rep ? std::min(pre_s, s) : s;
    }
    {
      scg::GamePolicy policy(net);
      const Clock::time_point t0 = Clock::now();
      lazy = scg::simulate_events(g, offchip, pairs, policy, cfg);
      const double s = seconds_since(t0);
      lazy_s = rep ? std::min(lazy_s, s) : s;
    }
  }

  const bool identical = lazy.completion_cycles == pre.completion_cycles &&
                         lazy.avg_latency == pre.avg_latency &&
                         lazy.total_hops == pre.total_hops &&
                         lazy.offchip_hops == pre.offchip_hops &&
                         lazy.max_link_busy == pre.max_link_busy;
  const double speedup = pre_s / lazy_s;
  std::printf("%-18s %-6s packets=%-8llu prerouted=%.3fs lazy=%.3fs "
              "speedup=%.2fx identical=%s cache-hit=%.1f%%\n",
              net.name.c_str(), workload,
              static_cast<unsigned long long>(lazy.packets), pre_s, lazy_s,
              speedup, identical ? "yes" : "NO",
              100.0 * lazy.telemetry.cache_hit_rate());
  json.row({exact("name", net.name), exact("workload", std::string(workload)),
            exact("packets", lazy.packets),
            exact("completion_cycles", lazy.completion_cycles),
            exact("total_hops", lazy.total_hops),
            exact("sim_identical", identical), info("prerouted_s", pre_s),
            info("lazy_s", lazy_s), rate("lazy_speedup", speedup),
            exact("events", lazy.telemetry.events_processed),
            exact("queue_peak", lazy.telemetry.queue_peak),
            exact("route_chunks", lazy.telemetry.route_chunks),
            info("cache_hit_rate", lazy.telemetry.cache_hit_rate())});
}

}  // namespace

int main(int argc, char** argv) {
  benchjson::Json json(argc, argv, "bench/baseline_sim.json");
  std::printf("=== MCMP workloads (constant pinout, w = 1 per node) ===\n");
  json.begin_array("workloads");

  std::printf("--- total exchange, N ~ 120-128 ---\n");
  {
    const scg::NetworkSpec ms = scg::make_macro_star(2, 2);
    run_cayley(ms, "TE", scg::total_exchange_pairs(ms.num_nodes()), json);
    const scg::NetworkSpec crs = scg::make_complete_rotation_star(2, 2);
    run_cayley(crs, "TE", scg::total_exchange_pairs(crs.num_nodes()), json);
    const scg::NetworkSpec mr = scg::make_macro_rotator(2, 2);
    run_cayley(mr, "TE", scg::total_exchange_pairs(mr.num_nodes()), json);
    const scg::Graph hc = scg::make_hypercube(7);
    run_graph(hc, "hypercube(7)", "TE",
              scg::total_exchange_pairs(hc.num_nodes()), json);
    const scg::Graph t2 = scg::make_torus_2d(11, 11);
    run_graph(t2, "torus 11x11", "TE",
              scg::total_exchange_pairs(t2.num_nodes()), json);
  }

  std::printf("--- multinode broadcast (unicast-emulated), N ~ 120-128 ---\n");
  {
    const scg::NetworkSpec ms = scg::make_macro_star(2, 2);
    run_cayley(ms, "MNB", scg::total_exchange_pairs(ms.num_nodes()), json);
    const scg::Graph hc = scg::make_hypercube(7);
    run_graph(hc, "hypercube(7)", "MNB",
              scg::total_exchange_pairs(hc.num_nodes()), json);
  }

  std::printf("--- uniform random traffic (8 packets/node), N ~ 720 ---\n");
  {
    const scg::NetworkSpec ms = scg::make_macro_star(5, 1);  // k=6, N=720
    run_cayley(ms, "rand", scg::random_traffic_pairs(ms.num_nodes(), 8, 7),
               json);
    const scg::NetworkSpec crs = scg::make_complete_rotation_star(5, 1);
    run_cayley(crs, "rand", scg::random_traffic_pairs(crs.num_nodes(), 8, 7),
               json);
    const scg::Graph hc = scg::make_hypercube(9);  // N=512, nearest power of 2
    run_graph(hc, "hypercube(9)", "rand",
              scg::random_traffic_pairs(hc.num_nodes(), 8, 7), json);
  }

  std::printf("--- cut-through switching (4-flit packets), TE, N ~ 120-128 ---\n");
  {
    // Section 4.2: with wormhole/cut-through switching per-hop latency
    // pipelines away for a lone packet, but under all-to-all load the
    // pin-limited serialisation keeps diameter/average distance decisive.
    const scg::NetworkSpec crs = scg::make_complete_rotation_star(2, 2);
    run_cayley(crs, "TE/ct", scg::total_exchange_pairs(crs.num_nodes()), json,
               /*flits=*/4);
    const scg::Graph hc = scg::make_hypercube(7);
    run_graph(hc, "hypercube(7)", "TE/ct",
              scg::total_exchange_pairs(hc.num_nodes()), json, /*flits=*/4,
              /*offchip_cycles_override=*/7);
  }

  std::printf(
      "--- lazy injection-time routing vs pre-materialised paths ---\n");
  json.begin_array("lazy_vs_prerouted");
  {
    // The acceptance workload: >= 100k packets on MS(3,2) (k=7, N=5040).
    // Random traffic at 25 packets/node = 126k packets; the relative-
    // permutation space has only 5039 members, so the route cache converges
    // to near-total hits either way — the lazy arm wins by never
    // materialising 126k individual path vectors.
    const scg::NetworkSpec ms = scg::make_macro_star(3, 2);
    lazy_vs_prerouted(ms, "rand",
                      scg::random_traffic_pairs(ms.num_nodes(), 25, 7), json);
    // A smaller all-to-all for cross-checking at a second shape.
    const scg::NetworkSpec crs = scg::make_complete_rotation_star(2, 2);
    lazy_vs_prerouted(crs, "TE",
                      scg::total_exchange_pairs(crs.num_nodes()), json);
  }

  std::printf(
      "\nExpectation (paper): the small intercluster degree of super Cayley\n"
      "MCMPs gives wide off-chip links (short per-hop occupancy), so TE and\n"
      "random routing complete in fewer cycles than on a hypercube whose\n"
      "pin budget is split over log2 N links — under store-and-forward and\n"
      "cut-through switching alike (Section 4.2).\n");
  return json.finish();
}
