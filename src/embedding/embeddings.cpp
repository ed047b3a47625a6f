#include "embedding/embeddings.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

namespace scg {

int GeneratorEmbedding::dilation() const {
  std::size_t d = 0;
  for (const auto& w : words) d = std::max(d, w.size());
  return static_cast<int>(d);
}

std::string GeneratorEmbedding::validate() const {
  if (words.size() != guest.generators.size()) {
    return "embedding has " + std::to_string(words.size()) + " words for " +
           std::to_string(guest.generators.size()) + " guest generators";
  }
  const GameRules host_rules = host.game();
  const Permutation id = Permutation::identity(guest.k());
  for (std::size_t i = 0; i < words.size(); ++i) {
    for (const Generator& g : words[i]) {
      if (!host_rules.permits(g)) {
        return "word " + std::to_string(i) + " uses non-host generator " + g.name();
      }
    }
    if (apply_word(id, words[i]) != guest.generators[i].applied(id)) {
      return "word " + std::to_string(i) + " does not realise guest generator " +
             guest.generators[i].name();
    }
  }
  return "";
}

GeneratorEmbedding star_into_is(int k) {
  GeneratorEmbedding e;
  e.guest = make_star_graph(k);
  e.host = make_insertion_selection(k);
  for (const Generator& g : e.guest.generators) {
    // T_i = I_i^{-1} ∘ I_{i-1} (apply I_{i-1} first); T_2 = I_2 directly.
    if (g.i == 2) {
      e.words.push_back({insertion(2)});
    } else {
      e.words.push_back({insertion(g.i - 1), selection(g.i)});
    }
  }
  return e;
}

GeneratorEmbedding bubble_sort_into_is(int k) {
  GeneratorEmbedding e;
  e.guest = make_bubble_sort_graph(k);
  e.host = make_insertion_selection(k);
  for (const Generator& g : e.guest.generators) {
    const int i = g.i;  // exchanges positions i and i+1 (j == i+1 by construction)
    if (i == 1) {
      e.words.push_back({insertion(2)});
    } else if (i == 2) {
      // I_2^{-1} == I_2, and the host deduplicates the selection away.
      e.words.push_back({insertion(2), insertion(3)});
    } else {
      // X_{i,i+1} = I_{i+1} ∘ I_i^{-1} (apply the selection first).
      e.words.push_back({selection(i), insertion(i + 1)});
    }
  }
  return e;
}

GeneratorEmbedding bubble_sort_into_star(int k) {
  GeneratorEmbedding e;
  e.guest = make_bubble_sort_graph(k);
  e.host = make_star_graph(k);
  for (const Generator& g : e.guest.generators) {
    const int i = g.i;
    if (i == 1) {
      e.words.push_back({transposition(2)});
    } else {
      e.words.push_back({transposition(i), transposition(i + 1), transposition(i)});
    }
  }
  return e;
}

GeneratorEmbedding transposition_into_star(int k) {
  GeneratorEmbedding e;
  e.guest = make_transposition_network(k);
  e.host = make_star_graph(k);
  for (const Generator& g : e.guest.generators) {
    const int i = g.i;
    const int j = g.n;  // exchange stores the second position in `n`
    if (i == 1) {
      e.words.push_back({transposition(j)});
    } else {
      e.words.push_back({transposition(i), transposition(j), transposition(i)});
    }
  }
  return e;
}

GeneratorEmbedding nucleus_star_into_macro_star(int l, int n) {
  GeneratorEmbedding e;
  e.host = make_macro_star(l, n);
  // Guest: the (n+1)-star on the first n+1 positions, padded to k symbols.
  NetworkSpec guest;
  guest.family = Family::kStar;
  guest.name = "star(" + std::to_string(n + 1) + ") within MS";
  guest.l = l;
  guest.n = n;
  guest.directed = false;
  for (int i = 2; i <= n + 1; ++i) guest.generators.push_back(transposition(i));
  e.guest = std::move(guest);
  for (const Generator& g : e.guest.generators) e.words.push_back({g});
  return e;
}

std::uint64_t directed_congestion(const GeneratorEmbedding& e) {
  const int k = e.host.k();
  const std::uint64_t n = e.host.num_nodes();
  const std::size_t deg = e.host.generators.size();
  std::vector<std::uint32_t> usage(n * deg, 0);

  // Map a host generator to its index once.
  auto gen_index = [&](const Generator& g) -> std::size_t {
    for (std::size_t i = 0; i < deg; ++i) {
      if (e.host.generators[i] == g) return i;
    }
    throw std::logic_error("generator not in host");
  };
  std::vector<std::size_t> word_gi;  // flattened per-word generator indices
  std::vector<std::size_t> word_off{0};
  for (const auto& w : e.words) {
    for (const Generator& g : w) word_gi.push_back(gen_index(g));
    word_off.push_back(word_gi.size());
  }

  std::uint64_t worst = 0;
  for (std::uint64_t r = 0; r < n; ++r) {
    const Permutation u0 = Permutation::unrank(k, r);
    for (std::size_t wi = 0; wi + 1 < word_off.size(); ++wi) {
      Permutation u = u0;
      for (std::size_t p = word_off[wi]; p < word_off[wi + 1]; ++p) {
        const std::size_t gi = word_gi[p];
        const std::uint64_t from = u.rank();
        const std::uint64_t slot = from * deg + gi;
        worst = std::max<std::uint64_t>(worst, ++usage[slot]);
        e.host.generators[gi].apply(u);
      }
    }
  }
  return worst;
}

std::uint64_t undirected_congestion(const GeneratorEmbedding& e) {
  const int k = e.host.k();
  const std::uint64_t n = e.host.num_nodes();
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint32_t> usage;
  std::uint64_t worst = 0;
  for (std::uint64_t r = 0; r < n; ++r) {
    const Permutation u0 = Permutation::unrank(k, r);
    for (std::size_t wi = 0; wi < e.words.size(); ++wi) {
      // Count each undirected guest edge once: keep the endpoint-ordered
      // representative.
      const Permutation guest_to = e.guest.generators[wi].applied(u0);
      if (guest_to.rank() < r) continue;
      Permutation u = u0;
      for (const Generator& g : e.words[wi]) {
        const std::uint64_t from = u.rank();
        g.apply(u);
        const std::uint64_t to = u.rank();
        const auto key = std::minmax(from, to);
        worst = std::max<std::uint64_t>(worst, ++usage[{key.first, key.second}]);
      }
    }
  }
  return worst;
}

std::vector<std::uint64_t> rotation_ring_through(const NetworkSpec& net,
                                                 const Permutation& start) {
  const Generator r1 = rotation(1, net.n);
  std::vector<std::uint64_t> ring;
  Permutation u = start;
  do {
    ring.push_back(u.rank());
    r1.apply(u);
  } while (u != start && ring.size() <= static_cast<std::size_t>(net.l) + 1);
  return ring;
}

}  // namespace scg
