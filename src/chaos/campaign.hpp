// CampaignRunner — invariant-checked degradation sweeps.  For each network
// family the runner sweeps a fault-rate x fault-kind grid: every cell
// compiles a seeded chaos script (fault_schedule.hpp), drives the unified
// event core through simulate_events in fault mode with a complete
// rerouter, records the full observer trace, and audits the run with
// check_sim_invariants.  The output is a degradation surface — delivered
// fraction, latency, stretch and retransmissions as functions of fault
// rate per kind — in which every point is certified: zero invariant
// violations or the cell says so.
//
// Two routing modes: "fault" (FaultRouter reroutes, the baseline) and
// "adaptive" (AdaptiveFaultPolicy routes *and* observes, quarantining
// fail-slow and flapping channels from in-band feedback).  Any other
// registered RoutePolicy name works for the primary routes, rerouting
// through the family's FaultRouter.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/fault_schedule.hpp"
#include "chaos/invariants.hpp"
#include "networks/super_cayley.hpp"
#include "sim/event_core.hpp"

namespace scg {

struct CampaignConfig {
  /// Sweep axes: every kind crossed with every rate.
  std::vector<FaultKind> kinds{FaultKind::kPermanent, FaultKind::kTransient,
                               FaultKind::kFlapping, FaultKind::kFailSlow,
                               FaultKind::kNodeCrash, FaultKind::kRegion};
  /// Fault rate r maps to a script count per kind: round(r * channels) for
  /// the link kinds, round(r * nodes) for node crashes (capped at nodes-1),
  /// and max(1, round(r * nodes / 8)) regions for region outages.  Rate 0
  /// is the fault-free reference cell, run once per family (its script is
  /// empty whatever the kind) and listed under the first kind.
  std::vector<double> rates{0.0, 0.05, 0.1, 0.2};

  std::string policy = "fault";  ///< "fault", "adaptive", or any registry name
  int packets_per_node = 4;      ///< uniform random traffic density
  std::uint64_t seed = 7;        ///< traffic + script seed root

  int timeout_cycles = 4;
  int max_retransmits = 8;
  std::uint64_t max_cycles = std::uint64_t{1} << 20;  ///< watchdog horizon
  std::size_t route_chunk = 256;  ///< small chunks: adaptive feedback lands
                                  ///< between lazy routing batches

  /// Script shape knobs (kind, count and seed are overwritten per cell).
  ChaosScriptConfig script;
};

struct CampaignCell {
  std::string family;
  FaultKind kind = FaultKind::kPermanent;
  double rate = 0.0;
  int count = 0;               ///< script count the rate mapped to
  double fault_fraction = 0.0; ///< failed channels (or nodes) / population
  bool fully_repaired = false; ///< script heals everything it breaks
  EventSimResult result;
  InvariantReport invariants;
  std::uint64_t quarantines = 0;   ///< adaptive policy only
  std::uint64_t readmissions = 0;  ///< adaptive policy only
};

struct CampaignResult {
  std::vector<CampaignCell> cells;  ///< family-major, kind, then rate order
  std::uint64_t total_violations = 0;
  /// Delivered fraction of each family's rate-0 reference cell, keyed in
  /// family order (for the transient-convergence gate).
  std::vector<double> fault_free_delivered;
};

/// Runs the full sweep.  Families must outlive the call.  Deterministic:
/// same (families, cfg) -> same result, cell for cell.
CampaignResult run_campaign(const std::vector<NetworkSpec>& families,
                            const CampaignConfig& cfg);

/// The count axis mapping described on CampaignConfig::rates.
int fault_count_for(FaultKind kind, double rate, std::uint64_t num_nodes,
                    std::size_t num_channels);

}  // namespace scg
