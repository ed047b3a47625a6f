#include "networks/view.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "core/perm_kernels.hpp"
#include "parallel/parallel_for.hpp"

namespace scg {

NetworkView NetworkView::compile(const NetworkSpec& net, bool reverse) {
  NetworkView v;
  v.backend_ = Backend::kImplicit;
  v.spec_ = &net;
  v.k_ = net.k();
  v.num_nodes_ = net.num_nodes();
  v.directed_ = net.directed;
  const std::size_t d = net.generators.size();
  if (d > static_cast<std::size_t>(kMaxCompiledDegree)) {
    throw std::invalid_argument("NetworkView: generator set too large");
  }
  v.degree_ = static_cast<int>(d);
  v.order_.reserve(d);
  for (std::size_t gi = 0; gi < d; ++gi) {
    const Generator g =
        reverse ? net.generators[gi].inverse(net.l) : net.generators[gi];
    const Permutation pos = g.as_position_permutation(v.k_);
    CompiledGenerator cg;
    cg.index = static_cast<int>(gi);
    cg.prefix_len = 1;
    for (int p = 0; p < v.k_; ++p) {
      cg.tab[p] = static_cast<std::uint8_t>(pos[p] - 1);
      if (cg.tab[p] != p) cg.prefix_len = p + 1;
    }
    v.order_.push_back(cg);
  }
  // Emission order for the shared-prefix pass: longest prefix first, so the
  // shared Myrvold-Ruskey loop hands each generator its residual exactly
  // when the loop variable reaches that generator's prefix length.
  std::stable_sort(v.order_.begin(), v.order_.end(),
                   [](const CompiledGenerator& a, const CompiledGenerator& b) {
                     return a.prefix_len > b.prefix_len;
                   });
  return v;
}

NetworkView NetworkView::of(const NetworkSpec& net) {
  return compile(net, /*reverse=*/false);
}

NetworkView NetworkView::reverse_of(const NetworkSpec& net) {
  return compile(net, /*reverse=*/true);
}

NetworkView NetworkView::of(const Graph& g) {
  NetworkView v;
  v.backend_ = Backend::kCsr;
  v.csr_ = &g;
  v.num_nodes_ = g.num_nodes();
  v.directed_ = g.directed();
  std::uint64_t d = 0;
  for (std::uint64_t u = 0; u < v.num_nodes_; ++u) {
    d = std::max(d, g.out_degree(u));
  }
  v.degree_ = static_cast<int>(d);
  return v;
}

NetworkView NetworkView::cached(const NetworkSpec& net,
                                std::size_t budget_bytes) {
  NetworkView v = compile(net, /*reverse=*/false);
  const std::uint64_t n = v.num_nodes_;
  if (n > UINT32_MAX) return v;  // node ids would not fit the table
  const std::uint64_t entries = n * static_cast<std::uint64_t>(v.degree_);
  if (entries * sizeof(std::uint32_t) > budget_bytes) return v;
  v.cache_.resize(entries);
  parallel_for_chunks(n, [&](std::uint64_t lo, std::uint64_t hi) {
    std::array<std::uint64_t, kMaxCompiledDegree> buf;
    for (std::uint64_t u = lo; u < hi; ++u) {
      const int d = v.expand_compiled(u, buf.data());
      std::uint32_t* row = v.cache_.data() + u * static_cast<std::uint64_t>(d);
      for (int j = 0; j < d; ++j) row[j] = static_cast<std::uint32_t>(buf[j]);
    }
  });
  v.backend_ = Backend::kCached;
  return v;
}

// Batch neighbor expansion with shared-prefix Myrvold-Ruskey ranking.
//
// MR rank processes positions k-1 down to 1, at each step recording the
// symbol found at the current position and swapping that position's correct
// symbol into place.  For a neighbor v[p] = u[tab[p]] whose tab fixes every
// position >= h, the states of u and v stay related by exactly that position
// permutation on 0..h-1 throughout the steps above h (the recorded digits
// are equal), so
//
//   rank(v) = prefix_r(u, h) + (k!/h!) * mr_rank_h(residual(u, h) о tab)
//
// where prefix_r/residual come from one shared pass over u.  A nucleus
// generator (prefix n+1) therefore costs O(n+1) instead of a full O(k)
// re-rank, and the unrank + state setup is paid once for all d generators.
//
// The per-generator residual rankings are additionally run in *lockstep*:
// every MR step is a serial chain of dependent byte swaps (~8 cycles each
// when executed back to back), but chains of different generators are
// independent, so one outer loop over the step index m that advances every
// active generator keeps several chains in flight per cycle.  Generators
// activate (gather their residual off the shared state) exactly when the
// descent reaches their prefix length; `order_` is sorted longest-prefix-
// first so the active set is always a prefix of it.
int NetworkView::expand_compiled(std::uint64_t rank, std::uint64_t* out) const {
  std::array<std::uint8_t, kMaxSymbols> pi;   // position -> 0-based symbol
  for (int i = 0; i < k_; ++i) pi[i] = static_cast<std::uint8_t>(i);
  {
    std::uint64_t r = rank;
    for (int n = k_; n > 1; --n) {
      std::uint64_t rem;
      r = detail::divmod(r, n, rem);
      std::swap(pi[n - 1], pi[rem]);
    }
  }
  return expand_from_state(pi.data(), out);
}

int NetworkView::expand_from_state(const std::uint8_t* state,
                                   std::uint64_t* out) const {
  std::array<std::uint8_t, kMaxSymbols> pi;   // position -> 0-based symbol
  std::array<std::uint8_t, kMaxSymbols> inv;  // symbol -> position
  std::memcpy(pi.data(), state, static_cast<std::size_t>(k_));
  for (int i = 0; i < k_; ++i) inv[pi[i]] = static_cast<std::uint8_t>(i);

  const std::size_t d = order_.size();
  // Per-generator residual state (indexed in `order_` order), one compact
  // record per generator so each chain's working set is 1-2 cache lines.
  struct alignas(16) Residual {
    std::uint8_t t[kMaxSymbols];     // position -> symbol
    std::uint8_t tinv[kMaxSymbols];  // symbol -> position
    std::uint64_t r2;                // accumulated residual rank
    std::uint64_t m2;                // residual digit multiplier
    std::uint64_t base;              // shared prefix_r at activation
    std::uint64_t scale;             // shared mult = k!/h! at activation
  };
  std::array<Residual, kMaxCompiledDegree> res;

  std::size_t active = 0;
  std::uint64_t prefix_r = 0;
  std::uint64_t mult = 1;
  for (int m = k_; m >= 2; --m) {
    // Activate generators whose prefix length is m: their residual is the
    // current shared state composed with their position table.
    while (active < d && order_[active].prefix_len >= m) {
      const CompiledGenerator& g = order_[active];
      Residual& q = res[active];
      for (int p = 0; p < m; ++p) {
        const std::uint8_t s = pi[g.tab[p]];
        q.t[p] = s;
        q.tinv[s] = static_cast<std::uint8_t>(p);
      }
      q.r2 = 0;
      q.m2 = 1;
      q.base = prefix_r;
      q.scale = mult;
      ++active;
    }
    // One lockstep MR step at index m for every active residual chain.
    // Positions/symbols >= m-1 are never read again, so the usual "swap the
    // correct symbol into place" halves to a single store per array.
    for (std::size_t gi = 0; gi < active; ++gi) {
      Residual& q = res[gi];
      const std::uint8_t s = q.t[m - 1];
      const std::uint8_t j = q.tinv[m - 1];
      q.t[j] = s;
      q.tinv[s] = j;
      q.r2 += q.m2 * s;
      q.m2 *= static_cast<std::uint64_t>(m);
    }
    if (active < d) {
      // Shared MR step: record position m-1's digit and fix symbol m-1
      // (only needed while some generator is still waiting to activate).
      const std::uint8_t s = pi[m - 1];
      std::swap(pi[m - 1], pi[inv[m - 1]]);
      std::swap(inv[s], inv[m - 1]);
      prefix_r += mult * s;
      mult *= static_cast<std::uint64_t>(m);
    }
  }
  // Degenerate prefix_len == 1 (identity generator): never activated above;
  // its neighbor is the node itself and the loop below emits base + 0.
  while (active < d) {
    res[active].base = prefix_r;
    res[active].scale = mult;
    res[active].r2 = 0;
    ++active;
  }
  for (std::size_t gi = 0; gi < d; ++gi) {
    out[order_[gi].index] = res[gi].base + res[gi].scale * res[gi].r2;
  }
  return static_cast<int>(d);
}

int NetworkView::expand_neighbors_block(std::span<const std::uint64_t> ranks,
                                        std::uint64_t* out) const {
  switch (backend_) {
    case Backend::kImplicit: {
      // The unranks of the whole block run through the batch unrank kernel
      // (fused-radix for k <= 16 on the SIMD tiers); each state then gets
      // the same shared-prefix residual expansion the scalar path runs, so
      // rows are entry-for-entry identical to expand_neighbors.
      thread_local PermBlock block;
      perm_kernels::unrank(k_, ranks, block);
      for (std::size_t i = 0; i < ranks.size(); ++i) {
        expand_from_state(block.lane(i),
                          out + i * static_cast<std::size_t>(degree_));
      }
      return degree_;
    }
    case Backend::kCached: {
      for (std::size_t i = 0; i < ranks.size(); ++i) {
        const std::uint32_t* row =
            cache_.data() + ranks[i] * static_cast<std::uint64_t>(degree_);
        std::uint64_t* o = out + i * static_cast<std::size_t>(degree_);
        for (int j = 0; j < degree_; ++j) o[j] = row[j];
      }
      return degree_;
    }
    case Backend::kCsr:
      throw std::invalid_argument(
          "expand_neighbors_block: CSR views are not regular");
  }
  return 0;
}

}  // namespace scg
