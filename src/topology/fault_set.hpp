// FaultSet — the value type every fault-aware layer shares: a set of failed
// nodes and failed arcs with O(1) membership, plus FaultFiltered, an adaptor
// that composes a FaultSet with any NetworkView-shaped adjacency so BFS,
// metrics and collectives traverse only the surviving network.
//
// Semantics:
//  * a failed node blocks every arc incident to it (in and out);
//  * fail_link(u,v) blocks both directions (an undirected link failure);
//    fail_arc(u,v) blocks only u->v (a directed fault, or a half-duplex
//    break);
//  * on multigraphs (two generators mapping u to the same v) a failed link
//    kills every parallel arc between the endpoints — faults address the
//    physical channel, not the generator label.
//
// Header-only on purpose: both scg_topology and scg_networks consume it, and
// scg_topology already links scg_networks, so a compiled home in either
// library would cycle.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

namespace scg {

/// Hash of an ordered node pair, for the fault layers' pair-keyed tables.
struct NodePairHash {
  std::size_t operator()(
      const std::pair<std::uint64_t, std::uint64_t>& p) const {
    // splitmix-style combine; node ranks may exceed 32 bits (k >= 13).
    std::uint64_t h = p.first * 0x9e3779b97f4a7c15ULL;
    h ^= (p.second + 0xc2b2ae3d27d4eb4fULL) + (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

class FaultSet {
 public:
  FaultSet() = default;

  void fail_node(std::uint64_t u) { nodes_.insert(u); }

  /// Undirected link failure: blocks u->v and v->u.
  void fail_link(std::uint64_t u, std::uint64_t v) {
    arcs_.insert(key(u, v));
    arcs_.insert(key(v, u));
  }

  /// Directed arc failure: blocks only u->v.
  void fail_arc(std::uint64_t u, std::uint64_t v) { arcs_.insert(key(u, v)); }

  /// Repairs — faults are no longer monotone once a chaos schedule carries
  /// repair events.  Repairing something that never failed is a no-op.
  void repair_node(std::uint64_t u) { nodes_.erase(u); }
  void repair_link(std::uint64_t u, std::uint64_t v) {
    arcs_.erase(key(u, v));
    arcs_.erase(key(v, u));
  }

  /// Unions another fault set into this one (advisory quarantines merge
  /// with ground-truth faults this way).
  void merge(const FaultSet& other) {
    nodes_.insert(other.nodes_.begin(), other.nodes_.end());
    arcs_.insert(other.arcs_.begin(), other.arcs_.end());
  }

  bool node_failed(std::uint64_t u) const { return nodes_.count(u) != 0; }
  bool arc_failed(std::uint64_t u, std::uint64_t v) const {
    return arcs_.count(key(u, v)) != 0;
  }

  /// True if a packet at `u` cannot take the hop to `v`: either endpoint is
  /// down or the arc itself failed.
  bool blocks(std::uint64_t u, std::uint64_t v) const {
    if (!nodes_.empty() && (node_failed(u) || node_failed(v))) return true;
    return arc_failed(u, v);
  }

  bool empty() const { return nodes_.empty() && arcs_.empty(); }
  std::size_t num_failed_nodes() const { return nodes_.size(); }
  /// Directed arc count (an undirected link failure contributes 2).
  std::size_t num_failed_arcs() const { return arcs_.size(); }

  void clear() {
    nodes_.clear();
    arcs_.clear();
  }

  const std::unordered_set<std::uint64_t>& failed_nodes() const {
    return nodes_;
  }

  /// Every failed directed arc as (from, to) pairs (an undirected link
  /// failure appears twice).  Unordered.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> failed_arc_pairs() const {
    return {arcs_.begin(), arcs_.end()};
  }

  /// Convenience constructor from failed-node and failed-(u,v) lists.
  /// `undirected_links` decides whether each (u,v) kills both directions.
  static FaultSet of(const std::vector<std::uint64_t>& failed_nodes,
                     const std::vector<std::pair<std::uint64_t, std::uint64_t>>&
                         failed_arcs,
                     bool undirected_links = true) {
    FaultSet f;
    for (const std::uint64_t u : failed_nodes) f.fail_node(u);
    for (const auto& [u, v] : failed_arcs) {
      if (undirected_links) {
        f.fail_link(u, v);
      } else {
        f.fail_arc(u, v);
      }
    }
    return f;
  }

 private:
  static std::pair<std::uint64_t, std::uint64_t> key(std::uint64_t u,
                                                     std::uint64_t v) {
    return {u, v};
  }

  std::unordered_set<std::uint64_t> nodes_;
  std::unordered_set<std::pair<std::uint64_t, std::uint64_t>, NodePairHash>
      arcs_;
};

/// Adaptor presenting the surviving subnetwork of `base` under `faults`
/// through the NetworkView concept (num_nodes / degree / for_each_neighbor /
/// expand_neighbors), so the templated traversals (bfs_distances,
/// zero_one_bfs, broadcast schedulers) run unchanged on a faulty network.
/// Borrows both arguments; they must outlive the adaptor.  Failed nodes keep
/// their ids but expose no links (and no link leads to them).
template <typename V>
class FaultFiltered {
 public:
  FaultFiltered(const V& base, const FaultSet& faults)
      : base_(&base), faults_(&faults) {}

  std::uint64_t num_nodes() const { return base_->num_nodes(); }

  int degree() const {
    // Upper bound on out-degree, as required by the BatchExpandable
    // contract (buffer sizing).
    if constexpr (requires(const V& v) { v.degree(); }) {
      return base_->degree();
    } else {
      return static_cast<int>(base_->max_degree());
    }
  }

  int expand_neighbors(std::uint64_t u, std::uint64_t* out) const {
    if (faults_->node_failed(u)) return 0;
    int d = 0;
    if constexpr (requires(const V& v, std::uint64_t* o) {
                    v.expand_neighbors(u, o);
                  }) {
      const int raw = base_->expand_neighbors(u, out);
      for (int j = 0; j < raw; ++j) {
        if (!faults_->blocks(u, out[j])) out[d++] = out[j];
      }
    } else {
      base_->for_each_neighbor(u, [&](std::uint64_t v, std::int32_t) {
        if (!faults_->blocks(u, v)) out[d++] = v;
      });
    }
    return d;
  }

  template <typename Fn>
  void for_each_neighbor(std::uint64_t u, Fn&& fn) const {
    if (faults_->node_failed(u)) return;
    base_->for_each_neighbor(u, [&](std::uint64_t v, std::int32_t tag) {
      if (!faults_->blocks(u, v)) fn(v, tag);
    });
  }

  const V& base() const { return *base_; }
  const FaultSet& faults() const { return *faults_; }

 private:
  const V* base_;
  const FaultSet* faults_;
};

}  // namespace scg
