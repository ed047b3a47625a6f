// The super Cayley graph classes of Section 3, plus the classic Cayley
// baselines (star, rotator, bubble-sort, transposition network) used for
// comparison.  Every network is a `NetworkSpec`: a generator set over
// permutations of k symbols; nodes are addressed by Myrvold–Ruskey rank.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/bag.hpp"
#include "core/generator.hpp"
#include "core/permutation.hpp"

namespace scg {

enum class Family : std::uint8_t {
  kMacroStar,              // MS(l,n)           Def 3.1/[32]
  kRotationStar,           // RS(l,n)           Def 3.5
  kCompleteRotationStar,   // complete-RS(l,n)  Def 3.6
  kMacroRotator,           // MR(l,n)           Def 3.7 (directed)
  kRotationRotator,        // RR(l,n)           Def 3.8 (directed)
  kCompleteRotationRotator,// complete-RR(l,n)  Def 3.9 (directed)
  kInsertionSelection,     // k-IS              Def 3.10
  kMacroIS,                // MIS(l,n)          Def 3.11
  kRotationIS,             // RIS(l,n)          Def 3.12
  kCompleteRotationIS,     // complete-RIS(l,n) Def 3.13
  kStar,                   // k-star baseline [1,2]
  kRotator,                // k-rotator baseline [9] (directed)
  kBubbleSort,             // adjacent-transposition Cayley graph
  kTranspositionNetwork,   // all-transpositions Cayley graph [19]
  kPancake,                // prefix-reversal Cayley graph baseline [3]
  kPartialRotationStar,    // Section 3.3.4: star-based, rotation subset
  kPartialRotationIS,      // Section 3.3.4: IS-based, rotation subset
  kRecursiveMacroStar,     // Section 3.3.4: MS with MS(l1,n1) nuclei
};

/// Human-readable family name ("MS", "complete-RS", "star", ...).
std::string family_name(Family f);

/// A concrete network instance.  Immutable after construction.
struct NetworkSpec {
  Family family;
  std::string name;   ///< e.g. "MS(2,3)"
  int l = 1;          ///< boxes (1 for one-box/baseline graphs)
  int n = 1;          ///< balls per box
  bool directed = false;
  std::vector<Generator> generators;  ///< deduplicated move set
  std::vector<int> rotations;  ///< partial-rotation families: the subset used
  int l1 = 0;  ///< recursive families: inner boxes (0 = not recursive)
  int n1 = 0;  ///< recursive families: inner balls per box
  /// Recursive families: nucleus_words[i - 2] is the inner MS(l1,n1) word
  /// realising the outer transposition T_i, for i in 2..n+1.
  std::vector<std::vector<Generator>> nucleus_words;

  int k() const { return n * l + 1; }
  std::uint64_t num_nodes() const { return factorial(k()); }

  /// Out-degree; for undirected networks this equals the plain degree
  /// because the generator set is inverse-closed and duplicate-free.
  int degree() const { return static_cast<int>(generators.size()); }

  /// Number of super (inter-cluster) generators — the paper's intercluster
  /// degree when one nucleus is packaged per chip (Section 4.3).
  int intercluster_degree() const;

  /// Number of nucleus generators.
  int nucleus_degree() const;

  /// Nodes per cluster (nucleus size): (n+1)! for super Cayley graphs.
  std::uint64_t cluster_size() const;

  /// Cluster id of a node: nucleus generators touch only the first n+1
  /// positions, so the trailing k-n-1 symbols identify the cluster.
  std::uint64_t cluster_of(const Permutation& u) const;

  /// The ball-arrangement game this network is the state graph of.
  GameRules game() const;
};

// ---- the nine super Cayley graph classes + macro-star (Section 3.3) ----
NetworkSpec make_macro_star(int l, int n);
NetworkSpec make_rotation_star(int l, int n);
NetworkSpec make_complete_rotation_star(int l, int n);
NetworkSpec make_macro_rotator(int l, int n);
NetworkSpec make_rotation_rotator(int l, int n);
NetworkSpec make_complete_rotation_rotator(int l, int n);
NetworkSpec make_insertion_selection(int k);
NetworkSpec make_macro_is(int l, int n);
NetworkSpec make_rotation_is(int l, int n);
NetworkSpec make_complete_rotation_is(int l, int n);

// ---- classic Cayley baselines ----
NetworkSpec make_star_graph(int k);
NetworkSpec make_rotator_graph(int k);
NetworkSpec make_bubble_sort_graph(int k);
NetworkSpec make_transposition_network(int k);
NetworkSpec make_pancake_graph(int k);

// ---- Section 3.3.4 extensions ----

/// Star-based super Cayley graph whose super generators are an arbitrary
/// subset of the rotations R^i, i in `rotations` ⊆ {1..l-1}.  The subset
/// must generate Z_l (checked at routing time).  Cost/performance sits
/// between RS(l,n) and complete-RS(l,n).
NetworkSpec make_partial_rotation_star(int l, int n,
                                       const std::vector<int>& rotations);

/// IS-based variant of the above.
NetworkSpec make_partial_rotation_is(int l, int n,
                                     const std::vector<int>& rotations);

/// Recursive macro-star MS(l; l1, n1): an MS(l, n) with n = l1*n1 whose
/// (n+1)-star nuclei are replaced by MS(l1, n1) networks.  Degree
/// n1 + l1 - 1 + l - 1 < n + l - 1.  Routing expands each outer T_i into a
/// fixed inner-generator word (T_i is an involution, so the word is
/// state-independent); the n words are solved here, into nucleus_words.
NetworkSpec make_recursive_macro_star(int l, int l1, int n1);

/// All ten families of Section 3 instantiated at (l,n) — convenience for
/// sweeps.  (IS uses k = n*l+1.)
std::vector<NetworkSpec> all_super_cayley(int l, int n);

/// Enumerates the out-neighbors of the node with the given rank.
/// `fn(neighbor_rank, generator_index)` is called once per out-link.
template <typename Fn>
void for_each_neighbor(const NetworkSpec& net, std::uint64_t rank, Fn&& fn) {
  const Permutation u = Permutation::unrank(net.k(), rank);
  for (std::size_t gi = 0; gi < net.generators.size(); ++gi) {
    Permutation v = u;
    net.generators[gi].apply(v);
    fn(v.rank(), static_cast<int>(gi));
  }
}

}  // namespace scg
