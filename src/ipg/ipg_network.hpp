// Super-index-permutation graphs (paper Section 4.3, [31,34,36,37]):
// ball-arrangement games where the n balls of a box share one number, so a
// state records only which *colors* sit where.  Nodes = multiset
// arrangements (k!/(n!)^l of them); moves = the usual position generators.
//
// The point the paper makes: a super Cayley graph's *intercluster* behavior
// is exactly an IPG — collapsing the nucleus detail — so IPGs achieve
// optimal intercluster diameters when clusters are larger than one nucleus.
// `scg_cli paper ipg` compares the two: the IPG's diameter sits between the
// matching super Cayley graph's intercluster diameter and its full diameter.
#pragma once

#include <string>
#include <vector>

#include "ipg/index_permutation.hpp"
#include "topology/metrics.hpp"

namespace scg {

struct IpgSpec {
  std::string name;
  int l = 1;  ///< boxes / colors
  int n = 1;  ///< balls per box (all sharing the box's color)
  IpgShape shape;  ///< color 0 x1, colors 1..l each x n
  std::vector<Generator> generators;
  BoxMoveStyle style = BoxMoveStyle::kSwap;

  int k() const { return n * l + 1; }
  std::uint64_t num_nodes() const { return shape.num_states(); }

  /// The sorted goal state 0 1..1 2..2 ... l..l.
  IndexPermutation goal() const { return IndexPermutation::sorted(shape); }
};

/// Super-IP star: transpositions T_2..T_{n+1} + swaps S_2..S_l.
IpgSpec make_super_ip_star(int l, int n);

/// Super-IP complete-rotation star: T_2..T_{n+1} + rotations R^1..R^{l-1}.
IpgSpec make_super_ip_complete_rotation(int l, int n);

/// Implicit-graph adapter (distinct neighbors only; moves that fix the
/// state — e.g. swapping two same-colored balls — yield no link).
struct IpgView {
  const IpgSpec* net;

  std::uint64_t num_nodes() const { return net->num_nodes(); }

  template <typename Fn>
  void for_each_neighbor(std::uint64_t rank, Fn&& fn) const {
    const IndexPermutation u = IndexPermutation::unrank(net->shape, rank);
    for (std::size_t gi = 0; gi < net->generators.size(); ++gi) {
      const IndexPermutation v = u.apply(net->generators[gi]);
      if (v != u) fn(v.rank(net->shape), static_cast<int>(gi));
    }
  }
};

/// Distance profile from the sorted state (IPGs need not be
/// vertex-symmetric, so this is the goal state's eccentricity profile).
DistanceStats ipg_distance_stats(const IpgSpec& net);

/// Exact diameter/average over all ordered pairs (O(N^2 d); small N only).
AllPairsStats ipg_all_pairs_stats(const IpgSpec& net);

/// Game solver: sorts `start` to the goal using only the spec's moves
/// (color-level Balls-to-Boxes; no within-box ordering is needed, so the
/// play is shorter than the distinct-ball game's).
std::vector<Generator> solve_ipg(const IpgSpec& net, const IndexPermutation& start);

/// Hop-by-hop validation; "" on success.
std::string check_ipg_word(const IpgSpec& net, const IndexPermutation& start,
                           const std::vector<Generator>& word);

}  // namespace scg
