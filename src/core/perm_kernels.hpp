// Batch permutation kernels — the vector layer under every routing hot path.
//
// The paper's networks live on k = n·l+1 <= 20 symbols, so a whole
// permutation fits in one 16-byte (k <= 16) or 32-byte (k <= 20) register
// and relabeling / generator application are each a single byte-shuffle
// (`pshufb` and the two-shuffle+blend 32-byte emulation).  This header
// exposes the batch keying path RouteEngine::route_batch runs (unrank,
// inverse, relabel, rank) and the single-lane helpers of its per-hop path,
// behind a *runtime-selected* tier:
//
//   kScalar  portable C++ loops — the reference everything is tested against
//   kSse     SSSE3 `pshufb` (+ SSE4.1 `pblendvb` for k in 17..20)
//   kAvx2    AVX2 `vpshufb`: two 16-byte permutations per 256-bit op, or the
//            broadcast128+blend trick for one 32-byte permutation
//
// The tier is detected once at startup (`__builtin_cpu_supports`) and is
// reportable (`active_kernel_tier`) and overridable (`set_active_kernel_tier`,
// used by the differential tests to prove every compiled tier byte-identical
// to the scalar reference).  Non-x86 builds compile only the scalar tier and
// are otherwise unaffected — the SIMD bodies live behind per-function target
// attributes, so no global -mavx2 flag is needed or used.
//
// Myrvold–Ruskey rank, and unrank for k > 16, run one serial divmod chain
// per lane on every tier: an 8-wide lockstep pass over the chains measured
// 0.88–1.26x the scalar rank and 1.09x the scalar unrank at k = 20, so it
// was not kept.  Unrank for k <= 16 on the SIMD tiers takes a fused-radix
// path (three digits per divmod, one pshufb per digit group), 5–7x scalar.
//
// Lane convention: a permutation of {1..k} is stored 0-based (symbol-1) in
// bytes [0, k) of a 16-byte (k <= 16) or 32-byte (k > 16) lane, with the
// identity continuation k, k+1, ... in the padding bytes.  Position tables
// padded the same way keep full-width shuffles exact: padded positions map
// to themselves, so the padding is preserved by every kernel and a lane is
// always a valid permutation of {0..stride-1}.
//
// Every kernel is an exact integer computation — all tiers produce
// byte-identical results by construction, and tests assert it.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "core/permutation.hpp"

namespace scg {

/// Bytes in the widest lane (k in 17..20 uses the full 32).
inline constexpr int kPermLaneBytes = 32;

/// One kernel-ready lane: a position table or permutation, 0-based,
/// identity-padded to 32 bytes (see the lane convention above).
struct alignas(kPermLaneBytes) PermLane {
  std::uint8_t b[kPermLaneBytes];
};

/// Builds a kernel-ready lane from a 0-based position table of length k
/// (tab[p] in [0, k)); bytes [k, 32) become the identity continuation.
PermLane make_table_lane(const std::uint8_t* tab, int k);

/// Same, from a 1-based Permutation.
PermLane make_perm_lane(const Permutation& p);

// ---------------------------------------------------------------------------
// Tier selection
// ---------------------------------------------------------------------------

enum class KernelTier : std::uint8_t { kScalar = 0, kSse = 1, kAvx2 = 2 };

const char* kernel_tier_name(KernelTier t);

/// The tier every kernel below currently dispatches to.  Detected once at
/// startup: the best tier this binary compiled *and* this CPU supports.
KernelTier active_kernel_tier();

/// Tiers compiled into this binary and supported by this CPU, best last.
/// Always contains kScalar.
std::vector<KernelTier> supported_kernel_tiers();

/// Overrides the dispatch tier (differential tests, `scg_cli kernels`).
/// Returns false — and changes nothing — if the tier is not supported.
bool set_active_kernel_tier(KernelTier t);

// ---------------------------------------------------------------------------
// PermBlock — structure-of-arrays batch of permutations
// ---------------------------------------------------------------------------

/// N permutations of {1..k}, one per fixed-stride lane (16 bytes for
/// k <= 16, else 32), stored 0-based with identity padding.  The backing
/// store is 32-byte aligned and whole-lane sized, so kernels may touch a
/// full trailing lane even when n is odd.
class PermBlock {
 public:
  PermBlock() = default;

  /// Sets the symbol count and batch size; keeps capacity across calls
  /// (steady-state reuse allocates nothing).  Lane contents are unspecified
  /// until written via set()/unrank/a kernel output.
  void resize(int k, std::size_t n);

  int k() const { return k_; }
  std::size_t size() const { return n_; }
  std::size_t stride() const { return stride_; }

  std::uint8_t* lane(std::size_t i) { return data() + i * stride_; }
  const std::uint8_t* lane(std::size_t i) const { return data() + i * stride_; }

  std::uint8_t* data() { return storage_.empty() ? nullptr : storage_[0].b; }
  const std::uint8_t* data() const {
    return storage_.empty() ? nullptr : storage_[0].b;
  }

  /// Stores 1-based permutation `p` (size k()) into lane i.
  void set(std::size_t i, const Permutation& p);

  /// The 1-based permutation in lane i.
  Permutation get(std::size_t i) const;

 private:
  int k_ = 0;
  std::size_t stride_ = 0;
  std::size_t n_ = 0;
  std::vector<PermLane> storage_;
};

namespace perm_kernels {

// ---------------------------------------------------------------------------
// Batch primitives.  Each resizes `out` to match its inputs.
// ---------------------------------------------------------------------------

/// Pairwise relabeling: out[i][p] = relabel[i][a[i][p]] — the block form of
/// a[i].relabel_symbols(r[i]); with r = inverse(dsts) this yields the
/// relative permutations W = V^{-1}∘U of a whole batch of route requests.
/// `out` may alias either operand (the shuffle loads a whole lane before
/// storing it).  Throws std::invalid_argument if the operands differ in k
/// or size.
void relabel(const PermBlock& a, const PermBlock& relabel, PermBlock& out);

/// Batch group inverse: out[i][a[i][p]] = p.  A byte scatter (no shuffle
/// form), so all tiers share one store-unrolled implementation; `out` must
/// not alias `a`.
void inverse(const PermBlock& a, PermBlock& out);

/// Myrvold–Ruskey unrank: fills out with the permutations of {1..k} with
/// the given ranks (fused-radix for k <= 16 on the SIMD tiers, else one
/// divmod chain per lane).  Byte-identical to Permutation::unrank lane by
/// lane.
void unrank(int k, std::span<const std::uint64_t> ranks, PermBlock& out);

/// Myrvold–Ruskey rank of every lane, one rank_lane chain each.
/// Byte-identical to Permutation::rank lane by lane.  Throws
/// std::invalid_argument unless out.size() == a.size().
void rank(const PermBlock& a, std::span<std::uint64_t> out);

// ---------------------------------------------------------------------------
// Single-lane helpers for per-hop paths (RouteEngine::expand_path_into).
// ---------------------------------------------------------------------------

/// Writes the 32-byte lane of the permutation with the given rank
/// (0-based symbols, identity-padded).
void unrank_lane(int k, std::uint64_t rank, std::uint8_t* lane);

/// Myrvold–Ruskey rank of one 0-based lane.
std::uint64_t rank_lane(const std::uint8_t* lane, int k);

/// In-place single-lane shuffle: lane[p] = lane[tab.b[p]] over the full
/// `stride` bytes (16 or 32); dispatched like the block kernels.
void apply_table_lane(std::uint8_t* lane, const PermLane& tab, int stride);

}  // namespace perm_kernels

}  // namespace scg
