#include "networks/fault_router.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <span>
#include <stdexcept>
#include <unordered_set>

#include "networks/max_flow.hpp"

namespace scg {
namespace {

/// Blocked hops repaired locally (stage 2) before escalating.
constexpr int kRepairBudget = 8;
/// A walk gives up after kHopBudgetFactor * (primary hops + k) + 16 hops.
constexpr std::size_t kHopBudgetFactor = 4;
/// Largest network the stage-4 BFS fallback searches.
constexpr std::uint64_t kBfsNodeLimit = std::uint64_t{1} << 24;

/// Generator index joining u -> v in `view`, or -1.  On multigraphs the
/// lowest-index generator wins (deterministic words).
int arc_generator(const NetworkView& view, std::uint64_t u, std::uint64_t v) {
  std::array<std::uint64_t, kMaxCompiledDegree> buf;
  const int d = view.expand_neighbors(u, buf.data());
  for (int j = 0; j < d; ++j) {
    if (buf[j] == v) return j;
  }
  return -1;
}

RouteOutcome unreachable(std::string reason, RouteOutcome out) {
  out.status = RouteOutcome::Status::kUnreachable;
  out.reason = std::move(reason);
  return out;
}

}  // namespace

std::vector<std::uint32_t> narrow_path(const std::vector<std::uint64_t>& path) {
  std::vector<std::uint32_t> out;
  out.reserve(path.size());
  for (const std::uint64_t u : path) {
    out.push_back(static_cast<std::uint32_t>(u));
  }
  return out;
}

std::vector<std::vector<std::uint64_t>> node_disjoint_paths(
    const NetworkSpec& net, std::uint64_t s, std::uint64_t t,
    std::uint64_t max_nodes) {
  const std::uint64_t n = net.num_nodes();
  if (n > max_nodes) {
    throw std::invalid_argument(
        "node_disjoint_paths: network exceeds max_nodes");
  }
  if (s == t) return {};
  const std::uint64_t src = 2 * s + 1;
  const std::uint64_t dst = 2 * t;
  UnitFlowNetwork flow = node_split_network(NetworkView::of(net), s, t);
  flow.max_flow(src, dst);

  // Decompose: a graph arc u_out -> v_in (fwd, even target) carries flow iff
  // its residual capacity dropped to 0.  Interior nodes pass at most one
  // unit, so following saturated arcs (consuming them) from s traces each
  // path.
  using Arc = UnitFlowNetwork::Arc;
  const auto carries_flow = [](const Arc& a) {
    return a.fwd && a.cap == 0 && (a.to & 1) == 0;
  };
  std::vector<std::vector<std::uint64_t>> paths;
  for (Arc& first : flow.arcs(src)) {
    if (!carries_flow(first)) continue;
    first.cap = 1;  // consume
    std::vector<std::uint64_t> path{s};
    std::uint64_t at = first.to / 2;
    while (at != t) {
      path.push_back(at);
      bool advanced = false;
      for (Arc& a : flow.arcs(2 * at + 1)) {
        if (!carries_flow(a)) continue;
        a.cap = 1;
        at = a.to / 2;
        advanced = true;
        break;
      }
      if (!advanced) {
        throw std::logic_error("node_disjoint_paths: broken flow decomposition");
      }
    }
    path.push_back(t);
    paths.push_back(std::move(path));
  }
  return paths;
}

std::vector<Generator> word_from_path(const NetworkSpec& net,
                                      const std::vector<std::uint64_t>& path) {
  const NetworkView view = NetworkView::of(net);
  std::vector<Generator> word;
  word.reserve(path.empty() ? 0 : path.size() - 1);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const int gi = arc_generator(view, path[i], path[i + 1]);
    if (gi < 0) {
      throw std::invalid_argument("word_from_path: consecutive ranks " +
                                  std::to_string(path[i]) + " -> " +
                                  std::to_string(path[i + 1]) +
                                  " are not adjacent");
    }
    word.push_back(net.generators[static_cast<std::size_t>(gi)]);
  }
  return word;
}

FaultRouter::FaultRouter(const NetworkSpec& net)
    : net_(&net), view_(NetworkView::of(net)), engine_(net) {}

const std::vector<std::vector<std::uint64_t>>& FaultRouter::backups(
    std::uint64_t s, std::uint64_t t) const {
  MutexLock lock(backup_mu_);
  auto it = backup_cache_.find({s, t});
  if (it != backup_cache_.end()) return it->second;
  std::vector<std::vector<std::uint64_t>> paths;
  if (net_->num_nodes() <= kBackupNodeLimit) {
    paths = node_disjoint_paths(*net_, s, t);
  }
  return backup_cache_.emplace(std::make_pair(s, t), std::move(paths))
      .first->second;
}

RouteOutcome FaultRouter::route(std::uint64_t from, std::uint64_t to,
                                const FaultSet& faults) const {
  const int k = net_->k();
  return route(Permutation::unrank(k, from), Permutation::unrank(k, to),
               faults);
}

RouteOutcome FaultRouter::route(const Permutation& from, const Permutation& to,
                                const FaultSet& faults) const {
  RouteOutcome out;
  const std::uint64_t s = from.rank();
  const std::uint64_t t = to.rank();
  out.path.push_back(s);
  if (faults.node_failed(s)) return unreachable("source node failed", std::move(out));
  if (faults.node_failed(t)) {
    return unreachable("destination node failed", std::move(out));
  }
  if (s == t) {
    out.status = RouteOutcome::Status::kDelivered;
    return out;
  }

  // Stage 1+2: walk the game-theoretic route, locally repairing blocked hops.
  // Primary words come from the engine's per-thread scratch buffer (no
  // per-solve allocation; re-solves after repairs reuse the same arena, and
  // repeated pairs hit the relative-permutation cache).
  Permutation cur = from;
  std::uint64_t cur_rank = s;
  std::unordered_set<std::uint64_t> on_path{s};
  RouteBuffer& rb = engine_.scratch();
  std::span<const Generator> pending = engine_.route_into(from, to, rb);
  const std::size_t hop_budget =
      kHopBudgetFactor *
          (pending.size() + static_cast<std::size_t>(net_->k())) +
      16;
  std::size_t pi = 0;
  bool exhausted = false;
  std::array<std::uint64_t, kMaxCompiledDegree> buf;
  while (!exhausted) {
    if (cur_rank == t) {
      out.status = RouteOutcome::Status::kDelivered;
      return out;
    }
    if (out.word.size() >= hop_budget) break;
    if (pi == pending.size()) {
      pending = engine_.route_into(cur, to, rb);
      pi = 0;
      continue;
    }
    const Permutation nxt = pending[pi].applied(cur);
    const std::uint64_t nxt_rank = nxt.rank();
    if (!faults.blocks(cur_rank, nxt_rank)) {
      out.word.push_back(pending[pi]);
      out.path.push_back(nxt_rank);
      on_path.insert(nxt_rank);
      cur = nxt;
      cur_rank = nxt_rank;
      ++pi;
      continue;
    }
    // Blocked hop: deroute through the surviving generator whose re-routed
    // remainder is shortest, never re-entering a node already on the path
    // (the BFS fallback keeps completeness when that exclusion over-prunes).
    if (++out.repairs > kRepairBudget) break;
    const int d = view_.expand_neighbors(cur_rank, buf.data());
    int best_gi = -1;
    int best_len = std::numeric_limits<int>::max();
    for (int gi = 0; gi < d; ++gi) {
      const std::uint64_t v = buf[gi];
      if (faults.blocks(cur_rank, v) || on_path.count(v)) continue;
      const Generator& g = net_->generators[static_cast<std::size_t>(gi)];
      // route_length solves into its own per-thread buffer, so `pending`'s
      // backing buffer (scratch()) survives.
      const int len = engine_.route_length(g.applied(cur), to);
      if (len < best_len) {
        best_len = len;
        best_gi = gi;
      }
    }
    if (best_gi < 0) break;  // locally stuck: escalate
    const Generator& g = net_->generators[static_cast<std::size_t>(best_gi)];
    g.apply(cur);
    cur_rank = buf[best_gi];
    out.word.push_back(g);
    out.path.push_back(cur_rank);
    on_path.insert(cur_rank);
    pending = engine_.route_into(cur, to, rb);
    pi = 0;
  }

  // Stage 3: precomputed node-disjoint backup routes, whole-path from the
  // source.  With <= degree-1 failed links at least one of the degree-many
  // disjoint paths is untouched.
  if (net_->num_nodes() <= kBackupNodeLimit) {
    for (const std::vector<std::uint64_t>& p : backups(s, t)) {
      bool alive = true;
      for (std::size_t i = 0; alive && i + 1 < p.size(); ++i) {
        if (faults.blocks(p[i], p[i + 1])) alive = false;
      }
      if (!alive) continue;
      RouteOutcome backup;
      backup.status = RouteOutcome::Status::kDelivered;
      backup.path = p;
      backup.word = word_from_path(*net_, p);
      backup.repairs = out.repairs;
      backup.used_backup = true;
      return backup;
    }
  }

  // Stage 4: complete fallback — BFS over the fault-filtered view from the
  // packet's current position, splicing onto the hops already walked.
  return bfs_fallback(cur_rank, t, faults, std::move(out));
}

RouteOutcome FaultRouter::bfs_fallback(std::uint64_t cur, std::uint64_t t,
                                       const FaultSet& faults,
                                       RouteOutcome walked) const {
  const std::uint64_t n = net_->num_nodes();
  if (n > kBfsNodeLimit) {
    return unreachable("network exceeds the fallback BFS size limit",
                       std::move(walked));
  }
  walked.used_bfs_fallback = true;
  const FaultFiltered<NetworkView> filtered(view_, faults);
  constexpr std::uint32_t kNone = UINT32_MAX;
  std::vector<std::uint32_t> parent(n, kNone);
  std::vector<std::uint64_t> frontier{cur};
  std::vector<std::uint64_t> next;
  parent[cur] = static_cast<std::uint32_t>(cur);
  std::array<std::uint64_t, kMaxCompiledDegree> buf;
  bool found = cur == t;
  while (!found && !frontier.empty()) {
    next.clear();
    for (const std::uint64_t u : frontier) {
      const int d = filtered.expand_neighbors(u, buf.data());
      for (int j = 0; j < d; ++j) {
        const std::uint64_t v = buf[j];
        if (parent[v] != kNone) continue;
        parent[v] = static_cast<std::uint32_t>(u);
        if (v == t) {
          found = true;
          break;
        }
        next.push_back(v);
      }
      if (found) break;
    }
    frontier.swap(next);
  }
  if (!found) {
    return unreachable("no surviving path (network disconnected by faults)",
                       std::move(walked));
  }
  std::vector<std::uint64_t> tail;
  for (std::uint64_t v = t; v != cur; v = parent[v]) tail.push_back(v);
  std::reverse(tail.begin(), tail.end());
  std::uint64_t prev = cur;
  for (const std::uint64_t v : tail) {
    const int gi = arc_generator(view_, prev, v);
    if (gi < 0) {
      throw std::logic_error("fault router: BFS tree edge is not a generator");
    }
    walked.word.push_back(net_->generators[static_cast<std::size_t>(gi)]);
    walked.path.push_back(v);
    prev = v;
  }
  walked.status = RouteOutcome::Status::kDelivered;
  return walked;
}

}  // namespace scg
