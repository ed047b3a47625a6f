// NetworkView — the single graph interface every traversal in this library
// consumes.  One concept:
//
//   std::uint64_t num_nodes() const;
//   template <typename Fn> void for_each_neighbor(std::uint64_t u, Fn fn) const;
//   int expand_neighbors(std::uint64_t u, std::uint64_t* out) const;  // batch
//
// with three interchangeable backends behind one value type:
//
//  * kImplicit — neighbors of a Cayley network generated on the fly from
//    *compiled* generators.  Each `Generator` is lowered at construction into
//    a flat position-permutation table `tab` (neighbor[p] = u[tab[p]]), and
//    ranking uses a shared-prefix Myrvold–Ruskey pass: the MR digits for every
//    position a generator leaves fixed are computed once per node, so a
//    nucleus move costs O(n+1) instead of O(k).  One unrank serves all d
//    generators (the old path paid unrank + copy + apply + full re-rank per
//    edge).
//  * kCached — a materialized num_nodes x degree neighbor table, built in
//    parallel with the compiled expander.  Opt-in and memory-budgeted:
//    construction falls back to kImplicit when the table would exceed the
//    budget, so callers can request caching unconditionally.
//  * kCsr — a thin wrapper over an explicit `Graph` (baseline networks,
//    fault-injected subgraphs), so CSR and implicit traversals share call
//    sites.
//
// Neighbor tags: for kImplicit/kCached the tag is the generator index (the
// same labelling `NetworkSpec::generators` uses, relied on by 0-1 BFS link
// classification); for kCsr it is the stored arc tag.
//
// Views borrow the NetworkSpec/Graph they are built over; the borrowed
// object must outlive the view.  All const methods are thread-safe.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/permutation.hpp"
#include "networks/super_cayley.hpp"
#include "topology/graph.hpp"

namespace scg {

/// Default memory budget for NetworkView::cached (256 MiB of targets).
inline constexpr std::size_t kDefaultCacheBudget = std::size_t{1} << 28;

/// Hard cap on the compiled out-degree (largest real family: the k=20
/// transposition network at k(k-1)/2 = 190 generators).
inline constexpr int kMaxCompiledDegree = 256;

class NetworkView {
 public:
  enum class Backend : std::uint8_t { kImplicit, kCached, kCsr };

  NetworkView() = default;

  /// Implicit view of a Cayley network (compiled generators).
  static NetworkView of(const NetworkSpec& net);

  /// Implicit view of the *reverse* of a directed Cayley network (compiled
  /// inverse generators); tag gi labels the reverse of generator gi.
  static NetworkView reverse_of(const NetworkSpec& net);

  /// Materialized-cache view: pays the ranking cost once so repeated sweeps
  /// over the same instance are pure table lookups.  Falls back to the
  /// implicit view when num_nodes * degree targets exceed `budget_bytes`
  /// (check `is_cached()` to see which you got).
  static NetworkView cached(const NetworkSpec& net,
                            std::size_t budget_bytes = kDefaultCacheBudget);

  /// CSR wrapper: adapts an explicit Graph to the same interface.
  static NetworkView of(const Graph& g);

  std::uint64_t num_nodes() const { return num_nodes_; }

  /// Out-degree: exact for kImplicit/kCached (regular graphs), maximum
  /// out-degree for kCsr.  `expand_neighbors` buffers must hold degree().
  int degree() const { return degree_; }

  bool directed() const { return directed_; }
  Backend backend() const { return backend_; }
  bool is_cached() const { return backend_ == Backend::kCached; }

  /// The spec this view was compiled from (nullptr for CSR views).
  const NetworkSpec* spec() const { return spec_; }

  /// Batch API: fills out[0..d) with the out-neighbor node ids of `u` and
  /// returns d.  For kImplicit/kCached, out[j] is the neighbor via generator
  /// j (so j is the tag); for kCsr, arcs in storage order (tags dropped).
  int expand_neighbors(std::uint64_t u, std::uint64_t* out) const {
    switch (backend_) {
      case Backend::kImplicit:
        return expand_compiled(u, out);
      case Backend::kCached: {
        const std::uint32_t* row =
            cache_.data() + u * static_cast<std::uint64_t>(degree_);
        for (int j = 0; j < degree_; ++j) out[j] = row[j];
        return degree_;
      }
      case Backend::kCsr: {
        int d = 0;
        csr_->for_each_neighbor(
            u, [&](std::uint64_t v, std::int32_t) { out[d++] = v; });
        return d;
      }
    }
    return 0;
  }

  /// Block form of expand_neighbors for regular views (kImplicit/kCached):
  /// fills out[i * degree() + j] with neighbor j of ranks[i] — row i equal,
  /// entry for entry, to what expand_neighbors(ranks[i], ..) writes — and
  /// returns degree().  For kImplicit the whole block is unranked by the
  /// batch unrank kernel before the per-state shared-prefix expansion runs,
  /// which is where retrograde BFS sweeps spend their time.  Throws for
  /// kCsr views (irregular rows have no fixed stride).
  int expand_neighbors_block(std::span<const std::uint64_t> ranks,
                             std::uint64_t* out) const;

  /// fn(v, tag) once per out-link of u.
  template <typename Fn>
  void for_each_neighbor(std::uint64_t u, Fn&& fn) const {
    switch (backend_) {
      case Backend::kCsr:
        csr_->for_each_neighbor(u, fn);
        return;
      case Backend::kCached: {
        const std::uint32_t* row =
            cache_.data() + u * static_cast<std::uint64_t>(degree_);
        for (int j = 0; j < degree_; ++j) {
          fn(static_cast<std::uint64_t>(row[j]), static_cast<std::int32_t>(j));
        }
        return;
      }
      case Backend::kImplicit: {
        std::array<std::uint64_t, kMaxCompiledDegree> buf;
        const int d = expand_compiled(u, buf.data());
        for (int j = 0; j < d; ++j) {
          fn(buf[j], static_cast<std::int32_t>(j));
        }
        return;
      }
    }
  }

 private:
  /// One generator lowered to a flat position table: neighbor[p] = u[tab[p]]
  /// (0-based).  `prefix_len` is the smallest h with tab[p] == p for all
  /// p >= h: positions >= h keep their symbols, so the MR rank digits for
  /// those positions are shared with the source node.
  struct CompiledGenerator {
    std::array<std::uint8_t, kMaxSymbols> tab;
    int prefix_len = 0;
    int index = 0;  ///< original generator index == neighbor tag
  };

  static NetworkView compile(const NetworkSpec& net, bool reverse);

  /// Shared-prefix Myrvold–Ruskey batch expansion (see view.cpp).
  int expand_compiled(std::uint64_t rank, std::uint64_t* out) const;

  /// The expansion proper, from an already-unranked state (`state` is the
  /// position -> 0-based-symbol array, k_ bytes; exactly what the kernel
  /// unrank produces per lane).
  int expand_from_state(const std::uint8_t* state, std::uint64_t* out) const;

  Backend backend_ = Backend::kCsr;
  const NetworkSpec* spec_ = nullptr;
  const Graph* csr_ = nullptr;
  int k_ = 0;
  int degree_ = 0;
  std::uint64_t num_nodes_ = 0;
  bool directed_ = false;
  std::vector<CompiledGenerator> order_;  ///< sorted by prefix_len descending
  std::vector<std::uint32_t> cache_;      ///< kCached: num_nodes x degree
};

}  // namespace scg
