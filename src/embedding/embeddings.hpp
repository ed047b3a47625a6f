// Constant-dilation embeddings between Cayley networks (paper Sections 3.3.1,
// 3.3.3 and the conclusions' embedding claims).
//
// All embeddings here use the identity node map (guest and host share the
// node set, the permutations of {1..k}), so an embedding is fully described
// by one host word per guest generator: guest edge (U, gU) maps to the host
// path U -> ... -> gU obtained by replaying the word from U.  Because
// generators are position permutations, verifying the word at one node
// verifies it at every node.
//
// Key identities implemented:
//   T_i       = I_i^{-1} ∘ I_{i-1}      (star -> IS, dilation 2)
//   X_{i,i+1} = I_{i+1}  ∘ I_i^{-1}     (bubble-sort -> IS, dilation 2)
//   X_{i,j}   = T_i ∘ T_j ∘ T_i         (bubble-sort/transposition -> star,
//                                        dilation 3)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "networks/super_cayley.hpp"

namespace scg {

/// An identity-node-map embedding of `guest` into `host`: words[i] is the
/// host word realising guest.generators[i].
struct GeneratorEmbedding {
  NetworkSpec guest;
  NetworkSpec host;
  std::vector<std::vector<Generator>> words;

  /// Maximum host-path length over guest edges.
  int dilation() const;

  /// "" if every word uses only host generators and multiplies out to the
  /// corresponding guest generator; else an explanation.
  std::string validate() const;
};

/// k-star into k-IS with dilation 2 (dilation 1 on the T_2 edges).  The
/// paper states congestion 1 and emulation slowdown <= 2 (Section 3.3.3).
GeneratorEmbedding star_into_is(int k);

/// Bubble-sort graph into k-IS with dilation 2.
GeneratorEmbedding bubble_sort_into_is(int k);

/// Bubble-sort graph into k-star with dilation 3.
GeneratorEmbedding bubble_sort_into_star(int k);

/// Complete transposition network into k-star with dilation 3.
GeneratorEmbedding transposition_into_star(int k);

/// (n+1)-star into MS(l,n)'s nucleus... more precisely: the k-star spanned
/// by T_2..T_{n+1} is a subgraph of MS(l,n); returns the trivial embedding
/// of star(n+1) generators (extended to k symbols) into MS(l,n).
GeneratorEmbedding nucleus_star_into_macro_star(int l, int n);

/// Exhaustive directed-link congestion of an embedding: the maximum number
/// of guest-edge images crossing any single host arc, computed over all k!
/// nodes.  Small k only (k <= 7 recommended).  Every guest *arc* (both
/// directions of an undirected guest edge) contributes its image path.
std::uint64_t directed_congestion(const GeneratorEmbedding& e);

/// Undirected congestion (the paper's notion for undirected guest/host
/// pairs): each undirected guest edge contributes one image path; usage is
/// counted per undirected host link.  star -> IS achieves 1 here.
std::uint64_t undirected_congestion(const GeneratorEmbedding& e);

/// The l-node ring each node lies on when only rotation super links are
/// kept (Section 3.3.4: rotation networks decompose into k!/l disjoint
/// l-rings).  Returns the ranks of the cycle through `start`.
std::vector<std::uint64_t> rotation_ring_through(const NetworkSpec& net,
                                                 const Permutation& start);

}  // namespace scg
