// Distance-oracle evaluation: full-table construction throughput (parallel
// retrograde BFS over all k! states), point-query latency (mod-3 descent),
// exact whole-graph statistics, and oracle-exact optimality audits of the
// game routers.
//
// Prints a human-readable report and writes the same numbers to
// bench/baseline_oracle.json, or checks them against it with --check FILE
// (bench/json_out.hpp): the timings are info, everything else is exact.
#include <chrono>
#include <cstdio>
#include <random>
#include <string>

#include "analysis/oracle_audit.hpp"
#include "oracle/oracle.hpp"

#include "json_out.hpp"

namespace {

using benchjson::exact;
using benchjson::info;
using benchjson::Json;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void build_section(Json& json) {
  std::printf("=== full-table construction: parallel retrograde BFS ===\n");
  json.begin_array("build");
  for (const scg::NetworkSpec& net :
       {scg::make_macro_star(2, 4),          // k=9, undirected
        scg::make_star_graph(9),             // k=9 baseline
        scg::make_insertion_selection(9),    // k=9, degree 16
        scg::make_macro_rotator(2, 4),       // k=9, directed
        scg::make_complete_rotation_star(3, 3)}) {  // k=10, 3.6M states
    const auto t0 = Clock::now();
    const scg::DistanceOracle oracle = scg::DistanceOracle::build(net);
    const double secs = seconds_since(t0);
    const double rate = static_cast<double>(oracle.num_states()) / secs;
    std::printf("%-20s N=%-8llu deg=%-2d build=%6.3fs  %8.2fM states/s  "
                "diameter=%-3d avg=%.3f\n",
                net.name.c_str(),
                static_cast<unsigned long long>(oracle.num_states()),
                net.degree(), secs, rate / 1e6, oracle.diameter(),
                oracle.average_distance());
    json.row({exact("name", net.name), exact("states", oracle.num_states()),
              exact("degree", net.degree()), info("build_seconds", secs),
              info("states_per_second", rate),
              exact("diameter", oracle.diameter()),
              exact("avg_distance", oracle.average_distance())});
  }
}

void query_section(Json& json) {
  std::printf("\n=== point-query latency: exact_distance by mod-3 descent ===\n");
  json.begin_array("query");
  for (const scg::NetworkSpec& net :
       {scg::make_star_graph(9), scg::make_macro_rotator(2, 3)}) {
    const scg::DistanceOracle oracle = scg::DistanceOracle::build(net);
    std::mt19937_64 rng(17);
    std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
    const int kQueries = 20000;
    std::uint64_t dist_sum = 0;
    const auto t0 = Clock::now();
    for (int q = 0; q < kQueries; ++q) {
      dist_sum += static_cast<std::uint64_t>(
          oracle.exact_distance(pick(rng), pick(rng)));
    }
    const double secs = seconds_since(t0);
    const double ns = secs / kQueries * 1e9;
    std::printf("%-20s %d random pairs: %8.0f ns/query (avg distance %.3f)\n",
                net.name.c_str(), kQueries, ns,
                static_cast<double>(dist_sum) / kQueries);
    json.row({exact("name", net.name), exact("queries", kQueries),
              info("ns_per_query", ns),
              exact("avg_query_distance",
                    static_cast<double>(dist_sum) / kQueries)});
  }
}

void audit_section(Json& json) {
  std::printf("\n=== oracle-exact optimality audit of the game routers ===\n");
  json.begin_array("route_audit");
  for (const scg::NetworkSpec& net :
       {scg::make_star_graph(7), scg::make_macro_star(2, 3),
        scg::make_complete_rotation_star(3, 2), scg::make_macro_is(3, 2),
        scg::make_macro_rotator(3, 2)}) {
    const scg::DistanceOracle oracle = scg::DistanceOracle::build(net);
    const scg::OptimalityAudit a = scg::audit_route_optimality(net, oracle);
    const std::string check = scg::oracle_formula_crosscheck(net, oracle);
    std::printf("%-20s optimal=%5.1f%%  avg-stretch=%.3f  max-gap=%d hops  "
                "formula-check=%s\n",
                net.name.c_str(), 100.0 * a.optimal_fraction(), a.avg_stretch,
                a.max_gap, check.empty() ? "ok" : check.c_str());
    json.row({exact("name", net.name), exact("sources", a.sources),
              exact("optimal_fraction", a.optimal_fraction()),
              exact("avg_stretch", a.avg_stretch),
              exact("max_stretch", a.max_stretch),
              exact("max_gap", a.max_gap),
              exact("formula_check", check.empty() ? std::string("ok") : check)});
  }
}

void backup_section(Json& json) {
  std::printf("\n=== oracle-exact audit of FaultRouter backup paths ===\n");
  json.begin_array("backup_audit");
  for (const scg::NetworkSpec& net :
       {scg::make_macro_star(2, 2), scg::make_star_graph(5),
        scg::make_macro_is(2, 2)}) {
    const scg::DistanceOracle oracle = scg::DistanceOracle::build(net);
    const scg::BackupAudit a = scg::audit_backup_optimality(net, oracle, 24);
    std::printf("%-20s pairs=%-3llu paths=%-3llu avg-stretch=%.3f "
                "best-of-disjoint=%.3f worst=%.2f\n",
                net.name.c_str(), static_cast<unsigned long long>(a.pairs),
                static_cast<unsigned long long>(a.paths), a.avg_stretch,
                a.avg_best_stretch, a.max_stretch);
    json.row({exact("name", net.name), exact("pairs", a.pairs),
              exact("paths", a.paths), exact("avg_stretch", a.avg_stretch),
              exact("avg_best_stretch", a.avg_best_stretch),
              exact("max_stretch", a.max_stretch)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  Json json(argc, argv, "bench/baseline_oracle.json");
  build_section(json);
  query_section(json);
  audit_section(json);
  backup_section(json);
  std::printf(
      "\nExpectation: table construction sustains well over 1M states/s,\n"
      "point queries are microsecond-scale, the exact diameters respect the\n"
      "paper's closed-form bounds, and the audits quantify exactly how far\n"
      "each game router is from optimal play.\n");
  return json.finish();
}
