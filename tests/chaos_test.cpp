// Chaos subsystem: fault-schedule compilation, the adaptive (link-health)
// policy, trace-replay invariant checking, the campaign runner, and the two
// headline guarantees — no route ever crosses a failed channel, and a
// transient schedule whose repairs all land converges back to the
// fault-free result.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "chaos/adaptive_policy.hpp"
#include "chaos/campaign.hpp"
#include "chaos/fault_schedule.hpp"
#include "chaos/invariants.hpp"
#include "networks/fault_router.hpp"
#include "networks/route_policy.hpp"
#include "sim/event_core.hpp"
#include "sim/workloads.hpp"
#include "topology/fault.hpp"
#include "topology/metrics.hpp"

namespace scg {
namespace {

std::vector<NetworkSpec> property_families() {
  std::vector<NetworkSpec> nets;
  nets.push_back(make_macro_star(2, 2));
  nets.push_back(make_complete_rotation_star(2, 2));
  nets.push_back(make_macro_is(2, 2));
  nets.push_back(make_star_graph(5));
  return nets;
}

// ---------------------------------------------------------------------------
// Fault-schedule compilation
// ---------------------------------------------------------------------------

TEST(FaultSchedule, DeterministicAndSeedSensitive) {
  const Graph g = materialize(make_macro_star(2, 2));
  ChaosScriptConfig cfg;
  cfg.kind = FaultKind::kTransient;
  cfg.count = 6;
  cfg.seed = 42;
  const auto a = make_fault_schedule(g, cfg);
  const auto b = make_fault_schedule(g, cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].u, b[i].u);
    EXPECT_EQ(a[i].v, b[i].v);
    EXPECT_EQ(static_cast<int>(a[i].kind), static_cast<int>(b[i].kind));
  }
  cfg.seed = 43;
  const auto c = make_fault_schedule(g, cfg);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].u != c[i].u || a[i].v != c[i].v;
  }
  EXPECT_TRUE(differs) << "different seeds drew identical scripts";
}

TEST(FaultSchedule, KindShapesAndStats) {
  const Graph g = materialize(make_macro_star(2, 2));
  ChaosScriptConfig cfg;
  cfg.count = 4;
  cfg.seed = 9;

  cfg.kind = FaultKind::kPermanent;
  auto script = make_fault_schedule(g, cfg);
  EXPECT_EQ(script.size(), 4u);
  auto stats = schedule_stats(script);
  EXPECT_EQ(stats.channels_failed, 4u);
  EXPECT_TRUE(stats.monotone);
  EXPECT_FALSE(stats.fully_repaired);

  cfg.kind = FaultKind::kTransient;
  script = make_fault_schedule(g, cfg);
  EXPECT_EQ(script.size(), 8u);  // fail + repair per channel
  stats = schedule_stats(script);
  EXPECT_FALSE(stats.monotone);
  EXPECT_TRUE(stats.fully_repaired);

  cfg.kind = FaultKind::kFlapping;
  cfg.flaps = 3;
  script = make_fault_schedule(g, cfg);
  EXPECT_EQ(script.size(), 4u * 3u * 2u);
  EXPECT_TRUE(schedule_stats(script).fully_repaired);

  cfg.kind = FaultKind::kFailSlow;
  script = make_fault_schedule(g, cfg);
  EXPECT_EQ(script.size(), 4u);
  stats = schedule_stats(script);
  EXPECT_EQ(stats.channels_slowed, 4u);
  EXPECT_TRUE(stats.monotone);
  EXPECT_FALSE(stats.fully_repaired);

  cfg.kind = FaultKind::kNodeCrash;
  script = make_fault_schedule(g, cfg);
  EXPECT_EQ(script.size(), 4u);
  EXPECT_EQ(schedule_stats(script).nodes_failed, 4u);

  cfg.kind = FaultKind::kRegion;
  cfg.count = 1;
  cfg.region_radius = 1;
  cfg.onset_start = 17;
  script = make_fault_schedule(g, cfg);
  ASSERT_FALSE(script.empty());
  for (const FaultEvent& f : script) {
    EXPECT_EQ(f.time, 17u) << "region channels must die simultaneously";
    EXPECT_EQ(static_cast<int>(f.kind),
              static_cast<int>(FaultEventKind::kLinkFail));
  }
}

TEST(FaultSchedule, RejectsOverRequestsAndBadShapes) {
  const Graph g = materialize(make_macro_star(2, 2));
  const std::size_t channels = num_physical_channels(g);
  EXPECT_EQ(channels, g.num_links() / 2);  // symmetric arcs, no multi-edges
  ChaosScriptConfig cfg;
  cfg.kind = FaultKind::kPermanent;
  cfg.count = static_cast<int>(channels) + 1;
  EXPECT_THROW(make_fault_schedule(g, cfg), std::invalid_argument);
  cfg.kind = FaultKind::kNodeCrash;
  cfg.count = static_cast<int>(g.num_nodes());
  EXPECT_THROW(make_fault_schedule(g, cfg), std::invalid_argument);
  cfg.count = -1;
  EXPECT_THROW(make_fault_schedule(g, cfg), std::invalid_argument);
  cfg.kind = FaultKind::kFailSlow;
  cfg.count = 1;
  cfg.slow_multiplier = 1;
  EXPECT_THROW(make_fault_schedule(g, cfg), std::invalid_argument);
  cfg.kind = FaultKind::kFlapping;
  cfg.slow_multiplier = 8;
  cfg.flaps = 0;
  EXPECT_THROW(make_fault_schedule(g, cfg), std::invalid_argument);
  cfg.kind = FaultKind::kPermanent;
  cfg.count = 0;
  EXPECT_TRUE(make_fault_schedule(g, cfg).empty());
}

TEST(FaultSchedule, KindNamesRoundTrip) {
  for (const FaultKind k : all_fault_kinds()) {
    EXPECT_EQ(parse_fault_kind(fault_kind_name(k)), k);
  }
  EXPECT_THROW(parse_fault_kind("meteor"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Property: no route ever crosses a failed channel (50 random FaultSets x 4
// families, both the FaultRouter and the adaptive rerouter).
// ---------------------------------------------------------------------------

TEST(NoDeadChannelProperty, FaultRouterAndAdaptiveRerouter) {
  std::mt19937_64 rng(2024);
  for (const NetworkSpec& net : property_families()) {
    const Graph g = materialize(net);
    const FaultRouter router(net);
    AdaptiveFaultPolicy adaptive(net);
    const Rerouter adaptive_rr = adaptive.rerouter();
    std::uniform_int_distribution<std::uint64_t> pick(0, g.num_nodes() - 1);
    for (int trial = 0; trial < 50; ++trial) {
      const FaultSet faults = sample_random_faults(
          g, trial % 3, 1 + trial % static_cast<int>(net.degree()), rng);
      const std::uint64_t s = pick(rng);
      const std::uint64_t t = pick(rng);
      if (faults.node_failed(s) || faults.node_failed(t)) continue;
      const RouteOutcome out = router.route(s, t, faults);
      if (out.delivered()) {
        for (std::size_t i = 0; i + 1 < out.path.size(); ++i) {
          ASSERT_FALSE(faults.blocks(out.path[i], out.path[i + 1]))
              << net.name << " FaultRouter crossed a failed channel";
        }
      }
      const std::vector<std::uint32_t> path = adaptive_rr(s, t, faults);
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        ASSERT_FALSE(faults.blocks(path[i], path[i + 1]))
            << net.name << " adaptive rerouter crossed a failed channel";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Golden: transient faults whose repairs all land reproduce the fault-free
// run — byte-identical when the outage window precedes all traffic, and
// delivered-fraction-identical when outages interleave with traffic.
// ---------------------------------------------------------------------------

TEST(TransientConvergence, RepairedBeforeTrafficIsByteIdentical) {
  const NetworkSpec net = make_macro_star(2, 2);
  const Graph g = materialize(net);
  const OffchipTable offchip = mcmp_offchip_table(net, g);
  std::vector<TrafficPair> pairs = random_traffic_pairs(g.num_nodes(), 3, 5);
  for (TrafficPair& p : pairs) p.inject_time = 200;  // after every repair

  ChaosScriptConfig script;
  script.kind = FaultKind::kTransient;
  script.count = 10;
  script.onset_start = 0;
  script.onset_spacing = 4;
  script.down_cycles = 50;  // last repair lands at cycle 9*4 + 50 = 86 < 200
  script.seed = 77;
  const std::vector<FaultEvent> schedule = make_fault_schedule(g, script);
  ASSERT_TRUE(schedule_stats(schedule).fully_repaired);
  ASSERT_LT(schedule_stats(schedule).last_event_time, 200u);

  EventSimConfig cfg;
  cfg.fault_mode = true;
  cfg.offchip_cycles_per_flit = 2;
  const FaultRouter router(net);
  const Rerouter rr = make_rerouter(router);

  GamePolicy pol_a(net), pol_b(net);
  const EventSimResult with_faults =
      simulate_events(g, offchip, pairs, pol_a, cfg, schedule, &rr);
  const EventSimResult fault_free =
      simulate_events(g, offchip, pairs, pol_b, cfg, {}, &rr);

  EXPECT_EQ(with_faults.delivered, fault_free.delivered);
  EXPECT_EQ(with_faults.dropped, 0u);
  EXPECT_EQ(with_faults.timeouts, 0u);
  EXPECT_EQ(with_faults.retransmissions, 0u);
  EXPECT_EQ(with_faults.completion_cycles, fault_free.completion_cycles);
  EXPECT_EQ(with_faults.total_hops, fault_free.total_hops);
  EXPECT_EQ(with_faults.avg_latency, fault_free.avg_latency);
  EXPECT_EQ(with_faults.p50_latency, fault_free.p50_latency);
  EXPECT_EQ(with_faults.p99_latency, fault_free.p99_latency);
  EXPECT_EQ(with_faults.avg_stretch, fault_free.avg_stretch);
  EXPECT_EQ(with_faults.max_link_busy, fault_free.max_link_busy);
  EXPECT_FALSE(with_faults.truncated);
}

TEST(TransientConvergence, MidTrafficOutagesStillDeliverEverything) {
  // One outage at a time (spacing > down) on a degree-3 network can never
  // disconnect it (edge connectivity == degree), so with a complete
  // rerouter and budget to spare the delivered fraction must equal the
  // fault-free run's exactly — 1.0 — even though packets really collided.
  const NetworkSpec net = make_macro_star(2, 2);
  const Graph g = materialize(net);
  const OffchipTable offchip = mcmp_offchip_table(net, g);
  const std::vector<TrafficPair> pairs =
      random_traffic_pairs(g.num_nodes(), 4, 11);

  ChaosScriptConfig script;
  script.kind = FaultKind::kTransient;
  script.count = 8;
  script.onset_start = 0;
  script.onset_spacing = 40;
  script.down_cycles = 32;
  script.seed = 3;
  const std::vector<FaultEvent> schedule = make_fault_schedule(g, script);

  EventSimConfig cfg;
  cfg.fault_mode = true;
  cfg.offchip_cycles_per_flit = 2;
  cfg.max_retransmits = 32;
  const FaultRouter router(net);
  const Rerouter rr = make_rerouter(router);
  GamePolicy pol_a(net), pol_b(net);
  SimTraceRecorder trace;
  const EventSimResult with_faults =
      simulate_events(g, offchip, pairs, pol_a, cfg, schedule, &rr, &trace);
  const EventSimResult fault_free =
      simulate_events(g, offchip, pairs, pol_b, cfg, {}, &rr);

  EXPECT_GT(with_faults.timeouts, 0u) << "outages never intersected traffic";
  EXPECT_EQ(with_faults.delivered_fraction, fault_free.delivered_fraction);
  EXPECT_EQ(with_faults.delivered_fraction, 1.0);
  EXPECT_EQ(with_faults.dropped, 0u);
  const InvariantReport report = check_sim_invariants(
      g, offchip, pairs, cfg, schedule, with_faults, trace);
  EXPECT_TRUE(report.ok()) << (report.messages.empty()
                                   ? std::string("no detail")
                                   : report.messages.front());
}

// ---------------------------------------------------------------------------
// Watchdog truncation
// ---------------------------------------------------------------------------

TEST(Watchdog, TruncatesWithConservation) {
  const NetworkSpec net = make_macro_star(2, 2);
  const Graph g = materialize(net);
  const OffchipTable offchip = mcmp_offchip_table(net, g);
  const std::vector<TrafficPair> pairs =
      random_traffic_pairs(g.num_nodes(), 4, 23);

  EventSimConfig cfg;
  cfg.fault_mode = true;
  cfg.offchip_cycles_per_flit = 2;
  cfg.max_cycles = 12;  // far below the congested completion time
  GamePolicy policy(net);
  SimTraceRecorder trace;
  const EventSimResult res =
      simulate_events(g, offchip, pairs, policy, cfg, {}, nullptr, &trace);

  EXPECT_TRUE(res.truncated);
  EXPECT_TRUE(res.telemetry.truncated);
  EXPECT_GT(res.dropped, 0u);
  EXPECT_GT(res.delivered, 0u) << "horizon too tight to deliver anything";
  EXPECT_EQ(res.delivered + res.dropped, res.packets);
  const InvariantReport report =
      check_sim_invariants(g, offchip, pairs, cfg, {}, res, trace);
  EXPECT_TRUE(report.ok()) << (report.messages.empty()
                                   ? std::string("no detail")
                                   : report.messages.front());

  // Same run with a generous horizon: nothing truncated.
  cfg.max_cycles = std::uint64_t{1} << 32;
  GamePolicy policy2(net);
  const EventSimResult full =
      simulate_events(g, offchip, pairs, policy2, cfg, {});
  EXPECT_FALSE(full.truncated);
  EXPECT_EQ(full.delivered, full.packets);
}

// ---------------------------------------------------------------------------
// Invariant checker: passes clean runs, catches doctored ones
// ---------------------------------------------------------------------------

TEST(InvariantChecker, CleanChaosRunPasses) {
  const NetworkSpec net = make_macro_star(2, 2);
  const Graph g = materialize(net);
  const OffchipTable offchip = mcmp_offchip_table(net, g);
  const std::vector<TrafficPair> pairs =
      random_traffic_pairs(g.num_nodes(), 4, 31);

  ChaosScriptConfig script;
  script.kind = FaultKind::kFlapping;
  script.count = 6;
  script.down_cycles = 24;
  script.up_cycles = 16;
  script.flaps = 3;
  script.seed = 8;
  const std::vector<FaultEvent> schedule = make_fault_schedule(g, script);

  EventSimConfig cfg;
  cfg.fault_mode = true;
  cfg.offchip_cycles_per_flit = 2;
  const FaultRouter router(net);
  const Rerouter rr = make_rerouter(router);
  GamePolicy policy(net);
  SimTraceRecorder trace;
  const EventSimResult res =
      simulate_events(g, offchip, pairs, policy, cfg, schedule, &rr, &trace);
  const InvariantReport report =
      check_sim_invariants(g, offchip, pairs, cfg, schedule, res, trace);
  EXPECT_TRUE(report.ok()) << (report.messages.empty()
                                   ? std::string("no detail")
                                   : report.messages.front());
  EXPECT_GT(report.checks, 0u);
}

TEST(InvariantChecker, CatchesDoctoredCountersAndGhostHops) {
  const NetworkSpec net = make_macro_star(2, 2);
  const Graph g = materialize(net);
  const OffchipTable offchip = mcmp_offchip_table(net, g);
  const std::vector<TrafficPair> pairs =
      random_traffic_pairs(g.num_nodes(), 2, 13);

  // Kill one channel permanently from cycle 0.
  ChaosScriptConfig script;
  script.kind = FaultKind::kPermanent;
  script.count = 1;
  script.seed = 4;
  const std::vector<FaultEvent> schedule = make_fault_schedule(g, script);

  EventSimConfig cfg;
  cfg.fault_mode = true;
  cfg.offchip_cycles_per_flit = 2;
  const FaultRouter router(net);
  const Rerouter rr = make_rerouter(router);
  GamePolicy policy(net);
  SimTraceRecorder trace;
  const EventSimResult res =
      simulate_events(g, offchip, pairs, policy, cfg, schedule, &rr, &trace);
  ASSERT_TRUE(
      check_sim_invariants(g, offchip, pairs, cfg, schedule, res, trace).ok());

  // Doctored counter: claim one extra delivery.
  EventSimResult forged = res;
  forged.delivered += 1;
  EXPECT_GT(check_sim_invariants(g, offchip, pairs, cfg, schedule, forged,
                                 trace)
                .violations,
            0u);

  // Ghost hop: append a traversal across the channel the script killed.
  SimTraceRecorder ghost = trace;
  const FaultEvent& dead = schedule.front();
  ghost.hops.push_back({dead.time + 1000000, 0, dead.u, dead.v,
                        2 * static_cast<std::uint64_t>(1)});
  EventSimResult bumped = res;
  bumped.total_hops += 1;  // keep the recount consistent, isolate the replay
  bumped.flit_hops += 1;
  const InvariantReport ghost_report = check_sim_invariants(
      g, offchip, pairs, cfg, schedule, bumped, ghost);
  EXPECT_GT(ghost_report.violations, 0u);
  bool saw_ghost = false;
  for (const std::string& m : ghost_report.messages) {
    saw_ghost = saw_ghost || m.find("dead channel") != std::string::npos ||
                m.find("dead at traversal") != std::string::npos;
  }
  EXPECT_TRUE(saw_ghost);
}

// ---------------------------------------------------------------------------
// Adaptive policy: health scores, quarantine, re-admission, fallback
// ---------------------------------------------------------------------------

TEST(AdaptivePolicy, QuarantinesFailSlowChannelAndReadmits) {
  const NetworkSpec net = make_macro_star(2, 2);
  AdaptiveFaultPolicy policy(net);
  const Graph g = materialize(net);
  std::uint64_t u = 0, v = 0;
  g.for_each_neighbor(0, [&](std::uint64_t n, std::int32_t) {
    if (v == 0) v = n;
  });
  ASSERT_NE(v, 0u);

  // Healthy history, then the channel turns fail-slow (8x service time).
  for (int i = 0; i < 5; ++i) {
    policy.on_hop(10 * i, 0, u, v, 2);
  }
  EXPECT_FALSE(policy.quarantined(u, v));
  EXPECT_DOUBLE_EQ(policy.health(u, v), 1.0);
  std::uint64_t t = 100;
  while (!policy.quarantined(u, v)) {
    policy.on_hop(t, 0, u, v, 16);
    t += 10;
    ASSERT_LT(t, 1000u) << "EWMA never crossed the quarantine threshold";
  }
  EXPECT_GT(policy.health(u, v), 3.0);
  EXPECT_EQ(policy.quarantine_count(), 1u);

  // Routes avoid the quarantined channel while probation lasts.
  std::vector<std::uint32_t> path;
  policy.route_path(u, v, path);
  ASSERT_GE(path.size(), 2u);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const bool crosses = (path[i] == u && path[i + 1] == v) ||
                         (path[i] == v && path[i + 1] == u);
    EXPECT_FALSE(crosses) << "route crossed the quarantined channel";
  }

  // Probation expires: feedback elsewhere advances the clock, the next
  // route call sweeps the channel back in with a forgiven EWMA.
  policy.on_hop(t + 5000, 1, 1, 2, 2);
  policy.route_path(u, v, path);
  EXPECT_FALSE(policy.quarantined(u, v));
  EXPECT_EQ(policy.readmit_count(), 1u);
  EXPECT_DOUBLE_EQ(policy.health(u, v), 1.0)
      << "EWMA not forgiven on re-admission";
}

TEST(AdaptivePolicy, SingleTimeoutQuarantines) {
  const NetworkSpec net = make_macro_star(2, 2);
  AdaptiveFaultPolicy policy(net);
  const Graph g = materialize(net);
  std::uint64_t v = 0;
  g.for_each_neighbor(0, [&](std::uint64_t n, std::int32_t) {
    if (v == 0) v = n;
  });
  for (int i = 0; i < 4; ++i) policy.on_hop(i, 0, 0, v, 2);
  policy.on_timeout(50, 0, 0, v);
  EXPECT_TRUE(policy.quarantined(0, v))
      << "a dead-hop timeout must quarantine immediately";
}

TEST(AdaptivePolicy, RerouterFallsBackWhenQuarantineStrands) {
  // MS(2,1) is a 6-cycle: each node has exactly two channels.  Ground truth
  // kills one of node 0's channels; quarantining the other would strand
  // node 0, so the rerouter must fall back to ground truth alone — and the
  // route it returns still avoids the *real* fault.
  const NetworkSpec net = make_macro_star(2, 1);
  const Graph g = materialize(net);
  ASSERT_EQ(g.num_nodes(), 6u);
  std::vector<std::uint64_t> nbrs;
  g.for_each_neighbor(0, [&](std::uint64_t n, std::int32_t) {
    nbrs.push_back(n);
  });
  ASSERT_EQ(nbrs.size(), 2u);

  AdaptiveFaultPolicy policy(net);
  // Healthy baseline then timeouts quarantine channel (0, nbrs[1]).
  for (int i = 0; i < 3; ++i) policy.on_hop(i, 0, 0, nbrs[1], 1);
  policy.on_timeout(10, 0, 0, nbrs[1]);
  ASSERT_TRUE(policy.quarantined(0, nbrs[1]));

  FaultSet truth;
  truth.fail_link(0, nbrs[0]);
  const Rerouter rr = policy.rerouter();
  const std::uint64_t dst = nbrs[0];  // still reachable the long way round
  const std::vector<std::uint32_t> path = rr(0, dst, truth);
  ASSERT_FALSE(path.empty()) << "advisory quarantine stranded the packet";
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_FALSE(truth.blocks(path[i], path[i + 1]));
  }
}

TEST(AdaptivePolicy, RegisteredInPolicyRegistry) {
  register_adaptive_policy();
  const NetworkSpec net = make_macro_star(2, 2);
  const auto policy = make_route_policy("adaptive", net);
  ASSERT_NE(policy, nullptr);
  EXPECT_EQ(policy->name(), "adaptive");
  std::vector<std::uint32_t> path;
  policy->route_path(0, 5, path);
  EXPECT_GE(path.size(), 2u);
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 5u);
}

TEST(AdaptivePolicy, EndToEndFailSlowRunQuarantinesAndDeliversAll) {
  const NetworkSpec net = make_macro_star(2, 2);
  const Graph g = materialize(net);
  const OffchipTable offchip = mcmp_offchip_table(net, g);
  const std::vector<TrafficPair> pairs =
      random_traffic_pairs(g.num_nodes(), 4, 17);

  ChaosScriptConfig script;
  script.kind = FaultKind::kFailSlow;
  script.count = 12;
  script.slow_multiplier = 16;
  script.onset_start = 0;
  script.onset_spacing = 2;
  script.seed = 21;
  const std::vector<FaultEvent> schedule = make_fault_schedule(g, script);

  EventSimConfig cfg;
  cfg.fault_mode = true;
  cfg.offchip_cycles_per_flit = 2;
  cfg.route_chunk = 64;  // feedback lands between lazy routing chunks
  AdaptiveFaultPolicy policy(net);
  const Rerouter rr = policy.rerouter();
  SimTraceRecorder trace;
  TeeObserver obs{&trace, &policy};
  const EventSimResult res =
      simulate_events(g, offchip, pairs, policy, cfg, schedule, &rr, &obs);

  EXPECT_EQ(res.delivered, res.packets) << "fail-slow must not drop packets";
  EXPECT_GT(policy.quarantine_count(), 0u)
      << "no fail-slow channel was ever quarantined";
  const InvariantReport report =
      check_sim_invariants(g, offchip, pairs, cfg, schedule, res, trace);
  EXPECT_TRUE(report.ok()) << (report.messages.empty()
                                   ? std::string("no detail")
                                   : report.messages.front());
}

// ---------------------------------------------------------------------------
// Campaign runner
// ---------------------------------------------------------------------------

TEST(Campaign, SweepIsInvariantCleanAndDeterministic) {
  std::vector<NetworkSpec> families;
  families.push_back(make_macro_star(2, 2));

  CampaignConfig cfg;
  cfg.kinds = {FaultKind::kTransient, FaultKind::kFailSlow,
               FaultKind::kNodeCrash};
  cfg.rates = {0.0, 0.1};
  cfg.packets_per_node = 2;
  cfg.seed = 19;

  const CampaignResult a = run_campaign(families, cfg);
  EXPECT_EQ(a.total_violations, 0u);
  ASSERT_EQ(a.cells.size(), 1u + 3u);  // one reference + one cell per kind
  EXPECT_EQ(a.fault_free_delivered.size(), 1u);
  EXPECT_EQ(a.fault_free_delivered[0], 1.0);
  for (const CampaignCell& cell : a.cells) {
    EXPECT_TRUE(cell.invariants.ok()) << cell.family << " "
                                      << fault_kind_name(cell.kind);
    EXPECT_EQ(cell.result.delivered + cell.result.dropped,
              cell.result.packets);
    if (cell.rate > 0.0) {
      EXPECT_GT(cell.count, 0);
      EXPECT_GT(cell.fault_fraction, 0.0);
    }
  }

  const CampaignResult b = run_campaign(families, cfg);
  ASSERT_EQ(b.cells.size(), a.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].result.delivered, b.cells[i].result.delivered);
    EXPECT_EQ(a.cells[i].result.completion_cycles,
              b.cells[i].result.completion_cycles);
    EXPECT_EQ(a.cells[i].result.timeouts, b.cells[i].result.timeouts);
  }
}

TEST(Campaign, AdaptivePolicySweepRuns) {
  std::vector<NetworkSpec> families;
  families.push_back(make_macro_star(2, 2));
  CampaignConfig cfg;
  cfg.policy = "adaptive";
  cfg.kinds = {FaultKind::kFailSlow};
  cfg.rates = {0.0, 0.2};
  cfg.packets_per_node = 2;
  const CampaignResult res = run_campaign(families, cfg);
  EXPECT_EQ(res.total_violations, 0u);
  ASSERT_EQ(res.cells.size(), 2u);
  EXPECT_GT(res.cells.back().quarantines, 0u);
}

}  // namespace
}  // namespace scg
