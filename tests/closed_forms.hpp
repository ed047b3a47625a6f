// Closed-form distances to the identity in classic Cayley graphs, from the
// literature rather than from the repo's solvers: the ground truth that
// router_test and property_sweep_test hold the routers and BFS against.
#pragma once

#include <array>

#include "core/permutation.hpp"

namespace scg::closed_form {

/// Cycles of u read as the map p -> u[p] (1-based), fixed points included,
/// and the cycles of length >= 2 with the symbols they hold.
struct Cycles {
  int all = 0;
  int nontrivial = 0;
  int misplaced = 0;
};

inline Cycles cycles(const Permutation& u) {
  Cycles c;
  std::array<bool, kMaxSymbols> seen{};
  for (int i = 0; i < u.size(); ++i) {
    if (seen[static_cast<std::size_t>(i)]) continue;
    ++c.all;
    int len = 0;
    for (int j = i; !seen[static_cast<std::size_t>(j)]; j = u[j] - 1) {
      seen[static_cast<std::size_t>(j)] = true;
      ++len;
    }
    if (len >= 2) {
      ++c.nontrivial;
      c.misplaced += len;
    }
  }
  return c;
}

/// Akers–Harel–Krishnamurthy: the distance from u to the identity in the
/// star graph whose generators swap position `center` (1-based) with every
/// other position is c + m, minus 2 when `center` is misplaced, where c
/// counts the cycles of length >= 2 and m the symbols in them.
inline int star_distance(const Permutation& u, int center = 1) {
  const Cycles c = cycles(u);
  return c.nontrivial + c.misplaced - (u[center - 1] != center ? 2 : 0);
}

/// Bubble-sort graph (adjacent transpositions): the inversion count.
inline int inversions(const Permutation& u) {
  int count = 0;
  for (int i = 0; i < u.size(); ++i) {
    for (int j = i + 1; j < u.size(); ++j) {
      if (u[i] > u[j]) ++count;
    }
  }
  return count;
}

/// Transposition network (all transpositions): k minus the number of cycles.
inline int transposition_distance(const Permutation& u) {
  return u.size() - cycles(u).all;
}

}  // namespace scg::closed_form
