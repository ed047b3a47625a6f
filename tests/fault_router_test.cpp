// Fault-aware routing: delivery under every <= degree-1 link-fault set on
// small families, node-disjoint backup paths, degradation simulation, and
// fault-aware broadcast.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <unordered_set>
#include <utility>
#include <vector>

#include "collectives/collectives.hpp"
#include "networks/fault_router.hpp"
#include "networks/router.hpp"
#include "sim/event_core.hpp"
#include "topology/bfs.hpp"
#include "topology/fault.hpp"
#include "topology/fault_set.hpp"
#include "topology/graph.hpp"
#include "topology/metrics.hpp"

namespace scg {
namespace {

using Link = std::pair<std::uint64_t, std::uint64_t>;

// Physical links of an undirected network's materialized graph (stored as
// symmetric directed arcs): one unordered pair per channel.
std::vector<Link> enumerate_links(const Graph& g) {
  std::vector<Link> links;
  for (std::uint64_t u = 0; u < g.num_nodes(); ++u) {
    g.for_each_neighbor(u, [&](std::uint64_t v, std::int32_t) {
      if (v < u) return;
      links.emplace_back(u, v);
    });
  }
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  return links;
}

// A delivered outcome must carry a check_route-clean word whose path walks
// from..to over surviving links only.
void expect_clean_delivery(const NetworkSpec& net, std::uint64_t from,
                           std::uint64_t to, const RouteOutcome& out,
                           const FaultSet& faults) {
  ASSERT_TRUE(out.delivered()) << net.name << " " << from << "->" << to
                               << " (" << out.reason << ")";
  const Permutation u = Permutation::unrank(net.k(), from);
  const Permutation v = Permutation::unrank(net.k(), to);
  EXPECT_EQ(check_route(net, u, v, out.word), "") << net.name;
  ASSERT_EQ(out.path.size(), out.word.size() + 1);
  EXPECT_EQ(out.path.front(), from);
  EXPECT_EQ(out.path.back(), to);
  for (std::size_t i = 0; i + 1 < out.path.size(); ++i) {
    EXPECT_FALSE(faults.blocks(out.path[i], out.path[i + 1]))
        << net.name << " hop " << i << " uses a dead link";
  }
}

TEST(FaultRouter, NoFaultsMatchesGameRoute) {
  const NetworkSpec net = make_macro_star(2, 2);
  const FaultRouter router(net);
  const FaultSet none;
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
  for (int trial = 0; trial < 30; ++trial) {
    const std::uint64_t s = pick(rng), t = pick(rng);
    const RouteOutcome out = router.route(s, t, none);
    expect_clean_delivery(net, s, t, out, none);
    EXPECT_EQ(out.repairs, 0);
    EXPECT_FALSE(out.used_backup);
    EXPECT_FALSE(out.used_bfs_fallback);
    const std::size_t game_len =
        route(net, Permutation::unrank(net.k(), s), Permutation::unrank(net.k(), t))
            .size();
    EXPECT_EQ(out.word.size(), game_len);
  }
}

TEST(FaultRouter, ExhaustiveSingleLinkFaultsOnSixCycle) {
  // MS(2,1) is a 6-cycle (degree 2): every <= degree-1 = 1 link fault set,
  // every ordered pair — all must be delivered with a clean word.
  const NetworkSpec net = make_macro_star(2, 1);
  const Graph g = materialize(net);
  const FaultRouter router(net);
  std::vector<FaultSet> fault_sets(1);  // the empty set
  for (const Link& l : enumerate_links(g)) {
    FaultSet f;
    f.fail_link(l.first, l.second);
    fault_sets.push_back(std::move(f));
  }
  ASSERT_EQ(fault_sets.size(), 7u);
  for (const FaultSet& faults : fault_sets) {
    for (std::uint64_t s = 0; s < net.num_nodes(); ++s) {
      for (std::uint64_t t = 0; t < net.num_nodes(); ++t) {
        if (s == t) continue;
        expect_clean_delivery(net, s, t, router.route(s, t, faults), faults);
      }
    }
  }
}

TEST(FaultRouter, AllTwoLinkFaultSetsOnMacroStar31) {
  // MS(3,1) has degree 3 and 24 nodes: every fault set of <= 2 links keeps
  // the network connected (edge connectivity == 3), so every pair must be
  // delivered.  All C(36,2)+36+1 = 667 fault sets x 8 pseudorandom pairs
  // each, plus a sample of fault sets checked against every ordered pair.
  const NetworkSpec net = make_macro_star(3, 1);
  const Graph g = materialize(net);
  const FaultRouter router(net);
  const std::vector<Link> links = enumerate_links(g);
  std::vector<FaultSet> fault_sets(1);
  for (std::size_t i = 0; i < links.size(); ++i) {
    FaultSet f1;
    f1.fail_link(links[i].first, links[i].second);
    fault_sets.push_back(f1);
    for (std::size_t j = i + 1; j < links.size(); ++j) {
      FaultSet f2 = f1;
      f2.fail_link(links[j].first, links[j].second);
      fault_sets.push_back(std::move(f2));
    }
  }
  std::mt19937_64 rng(41);
  std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
  for (const FaultSet& faults : fault_sets) {
    for (int trial = 0; trial < 8; ++trial) {
      const std::uint64_t s = pick(rng), t = pick(rng);
      if (s == t) continue;
      expect_clean_delivery(net, s, t, router.route(s, t, faults), faults);
    }
  }
  std::uniform_int_distribution<std::size_t> pick_set(0, fault_sets.size() - 1);
  for (int round = 0; round < 10; ++round) {
    const FaultSet& faults = fault_sets[pick_set(rng)];
    for (std::uint64_t s = 0; s < net.num_nodes(); ++s) {
      for (std::uint64_t t = 0; t < net.num_nodes(); ++t) {
        if (s == t) continue;
        expect_clean_delivery(net, s, t, router.route(s, t, faults), faults);
      }
    }
  }
}

TEST(FaultRouter, NodeFaultsBelowVertexConnectivity) {
  // Vertex connectivity == degree == 3 on MS(2,2): any 2 failed nodes leave
  // every surviving pair connected, and the router must find the route.
  const NetworkSpec net = make_macro_star(2, 2);
  const Graph g = materialize(net);
  const FaultRouter router(net);
  std::mt19937_64 rng(59);
  std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
  for (int trial = 0; trial < 40; ++trial) {
    const FaultSet faults = sample_random_faults(g, 2, 0, rng);
    std::uint64_t s = pick(rng), t = pick(rng);
    while (faults.node_failed(s)) s = pick(rng);
    while (faults.node_failed(t) || t == s) t = pick(rng);
    expect_clean_delivery(net, s, t, router.route(s, t, faults), faults);
  }
}

TEST(FaultRouter, DirectedFamilyMatchesReachabilityGroundTruth) {
  // On the directed macro-rotator the router must deliver exactly when the
  // destination is reachable in the faulty digraph — never a false
  // unreachable, never a route over a dead arc.
  const NetworkSpec net = make_macro_rotator(2, 2);
  ASSERT_TRUE(net.directed);
  const Graph g = materialize(net);
  const FaultRouter router(net);
  std::mt19937_64 rng(67);
  std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
  for (int trial = 0; trial < 25; ++trial) {
    const FaultSet faults = sample_random_faults(g, 0, 3, rng);
    const Graph h = with_faults(g, faults);
    const std::uint64_t s = pick(rng);
    const auto dist = bfs_distances(h, s);
    for (int probes = 0; probes < 10; ++probes) {
      const std::uint64_t t = pick(rng);
      if (t == s) continue;
      const RouteOutcome out = router.route(s, t, faults);
      if (dist[t] != kUnreached) {
        expect_clean_delivery(net, s, t, out, faults);
      } else {
        EXPECT_FALSE(out.delivered());
        EXPECT_FALSE(out.reason.empty());
      }
    }
  }
}

TEST(FaultRouter, IsolatedDestinationReportsUnreachable) {
  const NetworkSpec net = make_macro_star(2, 2);
  const NetworkView view = NetworkView::of(net);
  const FaultRouter router(net);
  const std::uint64_t t = 17;
  FaultSet faults;  // cut every link incident to t
  view.for_each_neighbor(t, [&](std::uint64_t v, std::int32_t) {
    faults.fail_link(t, v);
  });
  const RouteOutcome out = router.route(std::uint64_t{0}, t, faults);
  EXPECT_FALSE(out.delivered());
  EXPECT_FALSE(out.reason.empty());
  // The reverse direction is equally cut.
  EXPECT_FALSE(router.route(t, std::uint64_t{0}, faults).delivered());
}

TEST(NodeDisjointPaths, DegreeManyAndInternallyDisjoint) {
  for (const NetworkSpec& net : {make_macro_star(2, 2), make_star_graph(4),
                                 make_insertion_selection(4)}) {
    std::mt19937_64 rng(net.num_nodes());
    std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
    for (int trial = 0; trial < 6; ++trial) {
      const std::uint64_t s = pick(rng);
      std::uint64_t t = pick(rng);
      while (t == s) t = pick(rng);
      const auto paths = node_disjoint_paths(net, s, t);
      EXPECT_EQ(paths.size(), static_cast<std::size_t>(net.degree()))
          << net.name;
      std::unordered_set<std::uint64_t> interior;
      for (const auto& p : paths) {
        ASSERT_GE(p.size(), 2u);
        EXPECT_EQ(p.front(), s);
        EXPECT_EQ(p.back(), t);
        for (std::size_t i = 1; i + 1 < p.size(); ++i) {
          EXPECT_TRUE(interior.insert(p[i]).second)
              << net.name << ": interior node " << p[i] << " shared";
        }
        // Each path is realizable as a generator word.
        const std::vector<Generator> word = word_from_path(net, p);
        EXPECT_EQ(check_route(net, Permutation::unrank(net.k(), s),
                              Permutation::unrank(net.k(), t), word),
                  "")
            << net.name;
      }
    }
  }
}

TEST(NodeDisjointPaths, SurviveAnyDegreeMinusOneLinkCut) {
  // The operational promise: with <= degree-1 link faults at least one
  // precomputed backup path is entirely alive.
  const NetworkSpec net = make_macro_star(2, 2);
  const Graph g = materialize(net);
  const FaultRouter router(net);
  std::mt19937_64 rng(83);
  std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint64_t s = pick(rng);
    std::uint64_t t = pick(rng);
    while (t == s) t = pick(rng);
    const FaultSet faults =
        sample_random_faults(g, 0, net.degree() - 1, rng);
    const auto& backups = router.backups(s, t);
    ASSERT_EQ(backups.size(), static_cast<std::size_t>(net.degree()));
    bool one_alive = false;
    for (const auto& p : backups) {
      bool alive = true;
      for (std::size_t i = 0; i + 1 < p.size(); ++i) {
        if (faults.blocks(p[i], p[i + 1])) { alive = false; break; }
      }
      one_alive |= alive;
    }
    EXPECT_TRUE(one_alive);
  }
}

TEST(WordFromPath, ThrowsOnNonAdjacentHop) {
  const NetworkSpec net = make_macro_star(2, 2);
  const NetworkView view = NetworkView::of(net);
  // Find a node that is not a neighbor of 0.
  std::unordered_set<std::uint64_t> nbrs;
  view.for_each_neighbor(0, [&](std::uint64_t v, std::int32_t) { nbrs.insert(v); });
  std::uint64_t far = 1;
  while (nbrs.count(far) != 0 || far == 0) ++far;
  EXPECT_THROW(word_from_path(net, {0, far}), std::invalid_argument);
}

// ---- degradation simulation ----

std::vector<SimPacket> routed_packets(const FaultRouter& router, int count,
                                      std::uint64_t seed) {
  const NetworkSpec& net = router.spec();
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
  const FaultSet none;
  std::vector<SimPacket> pkts;
  while (static_cast<int>(pkts.size()) < count) {
    const std::uint64_t s = pick(rng), t = pick(rng);
    if (s == t) continue;
    const RouteOutcome out = router.route(s, t, none);
    SimPacket pk;
    pk.src = s;
    pk.dst = t;
    pk.path.assign(out.path.begin(), out.path.end());
    pk.inject_time = pkts.size() % 4;
    pkts.push_back(std::move(pk));
  }
  return pkts;
}

TEST(FaultySim, EmptyScheduleMatchesPlainSimulator) {
  const NetworkSpec net = make_macro_star(2, 2);
  const Graph g = materialize(net);
  const FaultRouter router(net);
  const std::vector<SimPacket> pkts = routed_packets(router, 50, 7);
  const OffchipTable offchip = OffchipTable::uniform(g, true);
  const EventSimResult plain =
      simulate_events(g, offchip, pkts, EventSimConfig{});
  const Rerouter reroute = make_rerouter(router);
  const EventSimResult faulty = simulate_events(
      g, offchip, pkts, EventSimConfig{.fault_mode = true}, {}, &reroute);
  EXPECT_EQ(faulty.delivered, faulty.packets);
  EXPECT_EQ(faulty.dropped, 0u);
  EXPECT_EQ(faulty.delivered_fraction, 1.0);
  EXPECT_EQ(faulty.timeouts, 0u);
  EXPECT_EQ(faulty.retransmissions, 0u);
  EXPECT_EQ(faulty.completion_cycles, plain.completion_cycles);
  EXPECT_EQ(faulty.total_hops, plain.total_hops);
  EXPECT_NEAR(faulty.avg_latency, plain.avg_latency, 1e-12);
  EXPECT_NEAR(faulty.avg_stretch, 1.0, 1e-12);
}

TEST(FaultySim, MidRunLinkKillRetransmitsAndDelivers) {
  const NetworkSpec net = make_macro_star(2, 2);
  const Graph g = materialize(net);
  const FaultRouter router(net);
  std::vector<SimPacket> pkts = routed_packets(router, 40, 13);
  // Kill the first hop of packet 0 before it moves: a timeout + re-route is
  // forced, and edge connectivity 3 > 2 kills keeps everything deliverable.
  ASSERT_GE(pkts[0].path.size(), 2u);
  const std::vector<FaultEvent> schedule = {
      FaultEvent::link_fail(0, pkts[0].path[0], pkts[0].path[1]),
      FaultEvent::link_fail(5, pkts[1].path[0], pkts[1].path[1])};
  const Rerouter reroute = make_rerouter(router);
  const EventSimResult r =
      simulate_events(g, OffchipTable::uniform(g, true), pkts,
                      EventSimConfig{.fault_mode = true}, schedule, &reroute);
  EXPECT_EQ(r.delivered + r.dropped, r.packets);
  EXPECT_EQ(r.delivered, r.packets);  // 2 link faults < edge connectivity
  EXPECT_GE(r.timeouts, 1u);
  EXPECT_GE(r.retransmissions, 1u);
  EXPECT_GE(r.p99_latency, r.p50_latency);
  EXPECT_GE(r.max_stretch, 1.0);
  EXPECT_GE(r.avg_stretch, 1.0);
}

TEST(FaultySim, UnreachableDestinationIsDroppedNotCrashed) {
  const NetworkSpec net = make_macro_star(2, 2);
  const Graph g = materialize(net);
  const NetworkView view = NetworkView::of(net);
  const FaultRouter router(net);
  const FaultSet none;
  const std::uint64_t dst = 23;
  const RouteOutcome out = router.route(std::uint64_t{0}, dst, none);
  std::vector<SimPacket> pkts(1);
  pkts[0].src = 0;
  pkts[0].dst = dst;
  pkts[0].path.assign(out.path.begin(), out.path.end());
  std::vector<FaultEvent> schedule;  // cut the destination off at time 0
  view.for_each_neighbor(dst, [&](std::uint64_t v, std::int32_t) {
    schedule.push_back(FaultEvent::link_fail(0, dst, v));
  });
  const Rerouter reroute = make_rerouter(router);
  const EventSimResult r =
      simulate_events(g, OffchipTable::uniform(g, true), pkts,
                      EventSimConfig{.fault_mode = true}, schedule, &reroute);
  EXPECT_EQ(r.delivered, 0u);
  EXPECT_EQ(r.dropped, 1u);
  EXPECT_EQ(r.delivered_fraction, 0.0);
}

// ---- fault-aware broadcast ----

TEST(FaultBroadcast, MatchesFaultFreeWhenEmpty) {
  const NetworkSpec net = make_macro_star(2, 2);
  const NetworkView view = NetworkView::of(net);
  const FaultSet none;
  const CollectiveResult plain = broadcast_all_port(view, 0);
  const CollectiveResult faulty = broadcast_all_port(view, none, 0);
  EXPECT_TRUE(faulty.complete);
  EXPECT_EQ(faulty.rounds, plain.rounds);
  const CollectiveResult sp = broadcast_single_port(view, none, 0);
  EXPECT_TRUE(sp.complete);
  EXPECT_EQ(sp.messages, net.num_nodes() - 1);
}

TEST(FaultBroadcast, CompletesOnSurvivors) {
  const NetworkSpec net = make_macro_star(2, 2);
  const Graph g = materialize(net);
  const NetworkView view = NetworkView::of(net);
  const CollectiveResult plain = broadcast_all_port(view, 0);
  std::mt19937_64 rng(29);
  for (int trial = 0; trial < 10; ++trial) {
    const FaultSet faults = sample_random_faults(g, 1, net.degree() - 1, rng);
    std::uint64_t root = 0;
    while (faults.node_failed(root)) ++root;
    if (!connected_after_faults(g, faults)) continue;
    const CollectiveResult ap = broadcast_all_port(view, faults, root);
    EXPECT_TRUE(ap.complete);
    EXPECT_GE(ap.rounds, plain.rounds - 1);  // faults can only slow it down
    const CollectiveResult sp = broadcast_single_port(view, faults, root);
    EXPECT_TRUE(sp.complete);
    EXPECT_EQ(sp.messages, net.num_nodes() - 1 - faults.num_failed_nodes());
  }
}

TEST(FaultBroadcast, FailedRootIsIncomplete) {
  const NetworkSpec net = make_macro_star(2, 2);
  const NetworkView view = NetworkView::of(net);
  FaultSet faults;
  faults.fail_node(0);
  EXPECT_FALSE(broadcast_all_port(view, faults, 0).complete);
  EXPECT_FALSE(broadcast_single_port(view, faults, 0).complete);
}

}  // namespace
}  // namespace scg
