// Workload generation for the MCMP simulator: total exchange (TE),
// multinode broadcast (MNB, emulated with unicasts — see DESIGN.md), and
// uniform random traffic, over either a Cayley network (paths from the
// game-solver router) or an explicit graph (paths from per-destination BFS).
//
// Two layers: the *_pairs generators produce routing-free TrafficPair lists
// (feed these to the event core's lazy entry point together with a
// RoutePolicy), and the *_packets generators materialise full SimPacket
// paths up front (the legacy shape; TE/MNB/random packets are byte-identical
// to what they always produced).  GraphRoutes itself now lives in
// networks/route_policy.hpp beside the policies; this header re-exports it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "networks/route_policy.hpp"
#include "networks/super_cayley.hpp"
#include "networks/view.hpp"
#include "sim/packet.hpp"
#include "topology/graph.hpp"

namespace scg {

// ---- endpoint generation (no routing) ----

/// Total exchange: one pair per ordered (src, dst), src != dst.
std::vector<TrafficPair> total_exchange_pairs(std::uint64_t num_nodes);

/// Uniform random traffic: `per_node` pairs per source to uniformly random
/// destinations (excluding self).  Same RNG stream as
/// random_traffic_packets, so the two describe the same traffic.
std::vector<TrafficPair> random_traffic_pairs(std::uint64_t num_nodes,
                                              int per_node, std::uint64_t seed);

// ---- path materialisation ----

/// Routes every pair through `policy` (batched) into full SimPackets.
std::vector<SimPacket> packets_for(RoutePolicy& policy,
                                   std::span<const TrafficPair> pairs);

/// Total exchange on a Cayley network: one packet per ordered node pair,
/// routed by the network's game solver.
std::vector<SimPacket> total_exchange_packets(const NetworkSpec& net);

/// Total exchange on an explicit graph (shortest-path routed).
std::vector<SimPacket> total_exchange_packets(const Graph& g);

/// Uniform random traffic: `per_node` packets per source to uniformly
/// random destinations (excluding self).
std::vector<SimPacket> random_traffic_packets(const NetworkSpec& net,
                                              int per_node, std::uint64_t seed);
std::vector<SimPacket> random_traffic_packets(const Graph& g, int per_node,
                                              std::uint64_t seed);

}  // namespace scg
