#include "networks/router.hpp"

#include <stdexcept>

#include "networks/route_engine.hpp"

namespace scg {

std::vector<Generator> route(const NetworkSpec& net, const Permutation& from,
                             const Permutation& to) {
  if (from.size() != net.k() || to.size() != net.k()) {
    throw std::invalid_argument("route: permutation size != k");
  }
  const Permutation w = from.relabel_symbols(to.inverse());
  std::vector<Generator> out;
  out.reserve(static_cast<std::size_t>(route_word_bound(net)));
  // The offset-search scratch survives across calls so the scalar path pays
  // one allocation (the returned word) per route.
  thread_local std::vector<Generator> scratch;
  route_word_into(net, w, out, scratch);
  return out;
}

int route_length(const NetworkSpec& net, const Permutation& from,
                 const Permutation& to) {
  if (from.size() != net.k() || to.size() != net.k()) {
    throw std::invalid_argument("route_length: permutation size != k");
  }
  // The length is the routed word's size, solved into a per-thread buffer
  // whose capacity survives across calls.
  thread_local RouteBuffer buf;
  return route_word_into(net, from.relabel_symbols(to.inverse()), buf.word,
                         buf.scratch);
}

GameTrace route_trace(const NetworkSpec& net, const Permutation& from,
                      const Permutation& to) {
  return make_trace(from, route(net, from, to));
}

std::string check_route(const NetworkSpec& net, const Permutation& from,
                        const Permutation& to,
                        const std::vector<Generator>& word) {
  const GameRules rules = net.game();
  Permutation u = from;
  for (std::size_t i = 0; i < word.size(); ++i) {
    if (!rules.permits(word[i])) {
      return "hop " + std::to_string(i) + " uses non-generator " + word[i].name();
    }
    word[i].apply(u);
  }
  if (u != to) {
    return "walk ends at " + u.to_string() + ", not " + to.to_string();
  }
  return "";
}

}  // namespace scg
