// Fault tolerance analysis — the introduction lists fault tolerance among
// the star graph's desirable properties that super Cayley graphs inherit.
//
// Facts verified empirically here (and regression-tested in fault_test):
//  * a connected vertex-symmetric (Cayley) graph has edge connectivity equal
//    to its degree (Mader/Watkins), so up to degree-1 link failures never
//    disconnect a super Cayley graph;
//  * the small super Cayley instances are maximally node-connected too
//    (vertex connectivity == degree), giving degree-many node-disjoint
//    routes (see networks/fault_router.hpp for their construction);
//  * random node/link failures far below that threshold leave the network
//    connected with high probability.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "topology/fault_set.hpp"
#include "topology/graph.hpp"

namespace scg {

/// Copy of `g` restricted to survivors: failed nodes keep their ids but lose
/// every incident link; failed arcs are dropped (both directions for
/// undirected graphs when the FaultSet was built with fail_link).
Graph with_faults(const Graph& g, const FaultSet& faults);

/// True if every surviving node can reach every other (ignoring removed
/// nodes).  For directed graphs checks strong connectivity.
bool connected_after_faults(const Graph& g, const FaultSet& faults);

/// Exact edge connectivity between two nodes: max number of edge-disjoint
/// paths (unit-capacity max-flow, BFS augmenting).  Small graphs only.
std::uint64_t edge_connectivity_pair(const Graph& g, std::uint64_t s,
                                     std::uint64_t t);

/// Exact global edge connectivity: min over t != 0 of
/// edge_connectivity_pair(g, 0, t).  (Valid because some global min cut
/// separates node 0 from somebody.)  O(N * maxflow); small graphs only.
std::uint64_t edge_connectivity(const Graph& g);

/// Max number of internally node-disjoint s-t paths (node-splitting
/// max-flow).  For non-adjacent s,t this is the s-t vertex connectivity.
std::uint64_t vertex_connectivity_pair(const Graph& g, std::uint64_t s,
                                       std::uint64_t t);

/// Exact global vertex connectivity: the minimum of
/// vertex_connectivity_pair over every non-adjacent pair (n-1 for complete
/// graphs).  O(N^2) max-flows — small graphs only (N <= ~200).
std::uint64_t vertex_connectivity(const Graph& g);

/// Samples `node_failures` distinct nodes and `link_failures` distinct links
/// *without replacement* (uniformly over nodes resp. links: every physical
/// link is equally likely regardless of endpoint degrees).  A sampled link
/// whose reverse arc exists — always for undirected graphs, and for
/// materialize()d undirected networks stored as symmetric directed arcs —
/// fails in both directions; a one-way arc fails alone.  Throws
/// std::invalid_argument for negative counts, node_failures >= num_nodes
/// (at least one node must survive) and link_failures exceeding the number
/// of distinct physical channels — an over-request is a scripting bug, not
/// a "fail everything" ask.
FaultSet sample_random_faults(const Graph& g, int node_failures,
                              int link_failures, std::mt19937_64& rng);

/// Correlated "region" failures: picks `regions` distinct random centers
/// and, for each, fails every physical channel joining two nodes within BFS
/// distance `radius` of the center (the paper's fault model assumes
/// independent failures; real fabrics lose a switch tray or a rack at a
/// time, which this models as a radius-ball outage).  Regions may overlap;
/// the union of their channels fails.  Throws std::invalid_argument for
/// regions < 1, regions > num_nodes or radius < 1.
FaultSet sample_correlated_faults(const Graph& g, int regions, int radius,
                                  std::mt19937_64& rng);

/// Monte-Carlo fault experiment: fail `link_failures` random links (and
/// `node_failures` random nodes) `trials` times, each drawn without
/// replacement; returns the fraction of trials where the survivors stay
/// connected.
double random_fault_survival_rate(const Graph& g, int node_failures,
                                  int link_failures, int trials,
                                  std::uint64_t seed = 1234);

}  // namespace scg
