#include "sim/workloads.hpp"

#include <random>

#include "parallel/parallel_for.hpp"

namespace scg {

std::vector<TrafficPair> total_exchange_pairs(std::uint64_t num_nodes) {
  std::vector<TrafficPair> pairs;
  pairs.reserve(num_nodes * (num_nodes - 1));
  for (std::uint64_t s = 0; s < num_nodes; ++s) {
    for (std::uint64_t d = 0; d < num_nodes; ++d) {
      if (s == d) continue;
      pairs.push_back(TrafficPair{s, d, 0});
    }
  }
  return pairs;
}

std::vector<TrafficPair> random_traffic_pairs(std::uint64_t num_nodes,
                                              int per_node,
                                              std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint64_t> pick(0, num_nodes - 1);
  std::vector<TrafficPair> pairs;
  pairs.reserve(num_nodes * static_cast<std::uint64_t>(per_node));
  for (std::uint64_t s = 0; s < num_nodes; ++s) {
    for (int i = 0; i < per_node; ++i) {
      std::uint64_t d = pick(rng);
      if (d == s) d = (d + 1) % num_nodes;
      pairs.push_back(TrafficPair{s, d, 0});
    }
  }
  return pairs;
}

std::vector<SimPacket> packets_for(RoutePolicy& policy,
                                   std::span<const TrafficPair> pairs) {
  std::vector<std::uint64_t> src(pairs.size());
  std::vector<std::uint64_t> dst(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    src[i] = pairs[i].src;
    dst[i] = pairs[i].dst;
  }
  PathArena arena;
  policy.route_paths(src, dst, arena);
  std::vector<SimPacket> packets(pairs.size());
  parallel_for_chunks(pairs.size(), [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t i = lo; i < hi; ++i) {
      SimPacket& p = packets[i];
      p.src = pairs[i].src;
      p.dst = pairs[i].dst;
      p.inject_time = pairs[i].inject_time;
      const std::span<const std::uint32_t> path = arena[i];
      p.path.assign(path.begin(), path.end());
    }
  });
  return packets;
}

std::vector<SimPacket> total_exchange_packets(const NetworkSpec& net) {
  GamePolicy policy(net);
  return packets_for(policy, total_exchange_pairs(net.num_nodes()));
}

std::vector<SimPacket> total_exchange_packets(const Graph& g) {
  BfsPolicy policy(g);
  return packets_for(policy, total_exchange_pairs(g.num_nodes()));
}

std::vector<SimPacket> random_traffic_packets(const NetworkSpec& net,
                                              int per_node, std::uint64_t seed) {
  GamePolicy policy(net);
  return packets_for(policy,
                     random_traffic_pairs(net.num_nodes(), per_node, seed));
}

std::vector<SimPacket> random_traffic_packets(const Graph& g, int per_node,
                                              std::uint64_t seed) {
  BfsPolicy policy(g);
  return packets_for(policy,
                     random_traffic_pairs(g.num_nodes(), per_node, seed));
}

}  // namespace scg
