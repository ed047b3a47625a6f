#include "networks/oracle_policy.hpp"

namespace scg {

OraclePolicy::OraclePolicy(const NetworkSpec& net, ThreadPool* pool)
    : oracle_(DistanceOracle::build(net, pool)) {}

OraclePolicy::OraclePolicy(DistanceOracle oracle)
    : oracle_(std::move(oracle)) {}

void OraclePolicy::route_path(std::uint64_t src, std::uint64_t dst,
                              std::vector<std::uint32_t>& out) {
  const int k = oracle_.spec().k();
  Permutation u = Permutation::unrank(k, src);
  const std::vector<Generator> word =
      oracle_.optimal_route(u, Permutation::unrank(k, dst));
  out.clear();
  out.reserve(word.size() + 1);
  out.push_back(static_cast<std::uint32_t>(src));
  for (const Generator& g : word) {
    g.apply(u);
    out.push_back(static_cast<std::uint32_t>(u.rank()));
  }
}

int OraclePolicy::route_hops(std::uint64_t src, std::uint64_t dst) {
  const int k = oracle_.spec().k();
  return oracle_.exact_distance(Permutation::unrank(k, src),
                                Permutation::unrank(k, dst));
}

void register_oracle_policy() {
  register_route_policy("oracle", [](const NetworkSpec& net) {
    return std::unique_ptr<RoutePolicy>(new OraclePolicy(net));
  });
}

}  // namespace scg
