// UnitFlowNetwork — unit-capacity max-flow by BFS augmenting paths over an
// explicit residual network.  The one max-flow behind edge and vertex
// connectivity (topology/fault.hpp) and the fault router's node-disjoint
// backup paths (networks/fault_router.hpp).  Adjacency lists with 32-bit
// node ids: small networks only.
#pragma once

#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "networks/view.hpp"

namespace scg {

class UnitFlowNetwork {
 public:
  struct Arc {
    std::uint32_t to;
    std::uint32_t rev;  ///< index of the paired arc in arcs(to)
    std::uint8_t cap;   ///< residual capacity
    bool fwd;           ///< added by add_arc (false: its residual reverse)
  };

  explicit UnitFlowNetwork(std::uint64_t nodes) : adj_(nodes) {}

  /// Adds a -> b with capacity `cap`, and its residual reverse b -> a.
  void add_arc(std::uint64_t a, std::uint64_t b, std::uint8_t cap) {
    adj_[a].push_back(Arc{static_cast<std::uint32_t>(b),
                          static_cast<std::uint32_t>(adj_[b].size()), cap,
                          true});
    adj_[b].push_back(Arc{static_cast<std::uint32_t>(a),
                          static_cast<std::uint32_t>(adj_[a].size() - 1), 0,
                          false});
  }

  /// Pushes one unit at a time along BFS-shortest residual s-t paths until
  /// none is left, and returns the number of units pushed.
  std::uint64_t max_flow(std::uint64_t s, std::uint64_t t) {
    std::uint64_t flow = 0;
    for (;;) {
      std::vector<std::pair<std::uint32_t, std::uint32_t>> parent(
          adj_.size(), {UINT32_MAX, UINT32_MAX});  // (node, arc index)
      std::queue<std::uint64_t> q;
      q.push(s);
      parent[s] = {static_cast<std::uint32_t>(s), UINT32_MAX};
      while (!q.empty() && parent[t].first == UINT32_MAX) {
        const std::uint64_t u = q.front();
        q.pop();
        for (std::uint32_t i = 0; i < adj_[u].size(); ++i) {
          const Arc& a = adj_[u][i];
          if (a.cap == 0 || parent[a.to].first != UINT32_MAX) continue;
          parent[a.to] = {static_cast<std::uint32_t>(u), i};
          q.push(a.to);
        }
      }
      if (parent[t].first == UINT32_MAX) return flow;
      for (std::uint64_t v = t; v != s;) {
        const auto [u, ai] = parent[v];
        Arc& a = adj_[u][ai];
        --a.cap;
        ++adj_[v][a.rev].cap;
        v = u;
      }
      ++flow;
    }
  }

  /// Residual arcs out of u, in insertion order.
  std::vector<Arc>& arcs(std::uint64_t u) { return adj_[u]; }

 private:
  std::vector<std::vector<Arc>> adj_;
};

/// The node-split network of `view`: node u becomes u_in = 2u -> u_out =
/// 2u+1 with capacity 1 (255 for the terminals s and t), and every arc u->v
/// becomes u_out -> v_in with capacity 1.  Its max flow s_out -> t_in is the
/// number of internally node-disjoint s-t paths.
inline UnitFlowNetwork node_split_network(const NetworkView& view,
                                          std::uint64_t s, std::uint64_t t) {
  UnitFlowNetwork flow(2 * view.num_nodes());
  for (std::uint64_t u = 0; u < view.num_nodes(); ++u) {
    flow.add_arc(2 * u, 2 * u + 1, (u == s || u == t) ? 255 : 1);
    view.for_each_neighbor(u, [&](std::uint64_t v, std::int32_t) {
      flow.add_arc(2 * u + 1, 2 * v, 1);
    });
  }
  return flow;
}

}  // namespace scg
