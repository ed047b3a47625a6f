#include "analysis/oracle_audit.hpp"

#include <algorithm>
#include <random>

#include "analysis/formulas.hpp"
#include "networks/fault_router.hpp"
#include "networks/route_engine.hpp"
#include "parallel/parallel_for.hpp"

namespace scg {
namespace {

struct Partial {
  std::uint64_t sources = 0;
  std::uint64_t optimal = 0;
  double stretch_sum = 0.0;
  double max_stretch = 0.0;
  int max_gap = 0;
  std::uint64_t worst_rank = 0;
};

Partial combine(Partial a, const Partial& b) {
  a.sources += b.sources;
  a.optimal += b.optimal;
  a.stretch_sum += b.stretch_sum;
  a.max_stretch = std::max(a.max_stretch, b.max_stretch);
  if (b.max_gap > a.max_gap) {
    a.max_gap = b.max_gap;
    a.worst_rank = b.worst_rank;
  }
  return a;
}

}  // namespace

OptimalityAudit audit_route_optimality(const NetworkSpec& net,
                                       const DistanceOracle& oracle,
                                       ThreadPool* pool) {
  // Routing u -> identity sorts W = identity^{-1}∘u = u itself, so the
  // sweep feeds ranks straight into the counting kernel.  Every source has a
  // distinct W, so the route cache can never hit — disable it.
  const RouteEngine engine(net, RouteEngineConfig{.cache_capacity = 0});
  const Partial total = parallel_reduce<Partial>(
      net.num_nodes(), Partial{},
      [&](std::uint64_t lo, std::uint64_t hi) {
        Partial p;
        // The sweep visits every rank in order, so sources unrank through
        // the batch unrank kernel a block at a time; the counting kernel then
        // consumes each state exactly as the scalar loop did.
        constexpr std::size_t kBlock = 256;
        PermBlock block;
        std::vector<std::uint64_t> ranks(kBlock);
        for (std::uint64_t base = lo; base < hi; base += kBlock) {
          const std::size_t m =
              static_cast<std::size_t>(std::min<std::uint64_t>(kBlock, hi - base));
          ranks.resize(m);
          for (std::size_t i = 0; i < m; ++i) ranks[i] = base + i;
          perm_kernels::unrank(net.k(), ranks, block);
          for (std::size_t i = 0; i < m; ++i) {
            const std::uint64_t r = base + i;
            const int exact = oracle.distance_to_identity(r);
            if (exact <= 0) continue;  // identity (or unreachable) source
            const int routed = engine.route_length_rel(block.get(i));
            const double stretch =
                static_cast<double>(routed) / static_cast<double>(exact);
            ++p.sources;
            if (routed == exact) ++p.optimal;
            p.stretch_sum += stretch;
            p.max_stretch = std::max(p.max_stretch, stretch);
            if (routed - exact > p.max_gap) {
              p.max_gap = routed - exact;
              p.worst_rank = r;
            }
          }
        }
        return p;
      },
      combine, /*grain=*/1 << 10, pool);

  OptimalityAudit a;
  a.sources = total.sources;
  a.optimal = total.optimal;
  a.max_stretch = total.max_stretch;
  a.max_gap = total.max_gap;
  a.worst_rank = total.worst_rank;
  a.avg_stretch =
      total.sources ? total.stretch_sum / static_cast<double>(total.sources)
                    : 0.0;
  return a;
}

OptimalityAudit audit_policy_optimality(const NetworkSpec& net,
                                        const DistanceOracle& oracle,
                                        RoutePolicy& policy, ThreadPool* pool) {
  const std::uint64_t id_rank = Permutation::identity(net.k()).rank();
  const Partial total = parallel_reduce<Partial>(
      net.num_nodes(), Partial{},
      [&](std::uint64_t lo, std::uint64_t hi) {
        Partial p;
        for (std::uint64_t r = lo; r < hi; ++r) {
          const int exact = oracle.distance_to_identity(r);
          if (exact <= 0) continue;  // identity (or unreachable) source
          const int routed = policy.route_hops(r, id_rank);
          const double stretch =
              static_cast<double>(routed) / static_cast<double>(exact);
          ++p.sources;
          if (routed == exact) ++p.optimal;
          p.stretch_sum += stretch;
          p.max_stretch = std::max(p.max_stretch, stretch);
          if (routed - exact > p.max_gap) {
            p.max_gap = routed - exact;
            p.worst_rank = r;
          }
        }
        return p;
      },
      combine, /*grain=*/1 << 10, pool);

  OptimalityAudit a;
  a.sources = total.sources;
  a.optimal = total.optimal;
  a.max_stretch = total.max_stretch;
  a.max_gap = total.max_gap;
  a.worst_rank = total.worst_rank;
  a.avg_stretch =
      total.sources ? total.stretch_sum / static_cast<double>(total.sources)
                    : 0.0;
  return a;
}

BackupAudit audit_backup_optimality(const NetworkSpec& net,
                                    const DistanceOracle& oracle,
                                    std::uint64_t pairs, std::uint64_t seed) {
  BackupAudit a;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint64_t> pick(0, net.num_nodes() - 1);
  double best_sum = 0.0;
  double stretch_sum = 0.0;
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const std::uint64_t s = pick(rng);
    std::uint64_t t = pick(rng);
    while (t == s) t = pick(rng);
    const int exact = oracle.exact_distance(s, t);
    if (exact <= 0) continue;
    const auto backups = node_disjoint_paths(net, s, t);
    if (backups.empty()) continue;
    ++a.pairs;
    double best = 0.0;
    for (const auto& path : backups) {
      const double stretch = static_cast<double>(path.size() - 1) /
                             static_cast<double>(exact);
      ++a.paths;
      stretch_sum += stretch;
      a.max_stretch = std::max(a.max_stretch, stretch);
      best = best == 0.0 ? stretch : std::min(best, stretch);
    }
    best_sum += best;
  }
  if (a.paths) a.avg_stretch = stretch_sum / static_cast<double>(a.paths);
  if (a.pairs) a.avg_best_stretch = best_sum / static_cast<double>(a.pairs);
  return a;
}

std::string oracle_formula_crosscheck(const NetworkSpec& net,
                                      const DistanceOracle& oracle) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : oracle.histogram()) total += c;
  if (total != oracle.reachable_states()) {
    return net.name + ": histogram sums to " + std::to_string(total) +
           ", not the reachable count " +
           std::to_string(oracle.reachable_states());
  }
  if (oracle.reachable_states() != oracle.num_states()) {
    return net.name + ": only " + std::to_string(oracle.reachable_states()) +
           " of " + std::to_string(oracle.num_states()) +
           " states reach the identity";
  }
  const int bound = diameter_upper_bound(net);
  if (oracle.diameter() > bound) {
    return net.name + ": exact diameter " + std::to_string(oracle.diameter()) +
           " exceeds the paper bound " + std::to_string(bound);
  }
  if (oracle.average_distance() > static_cast<double>(oracle.diameter())) {
    return net.name + ": average distance exceeds the diameter";
  }
  return "";
}

}  // namespace scg
