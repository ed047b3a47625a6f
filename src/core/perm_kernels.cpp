#include "core/perm_kernels.hpp"

#include "core/check.hpp"

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#define SCG_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace scg {
namespace {

constexpr std::uint8_t kIota[kPermLaneBytes] = {
    0,  1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12, 13, 14, 15,
    16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31};

// ---------------------------------------------------------------------------
// The one shuffle kernel, per tier: out_lane[p] = tab_lane[idx_lane[p]] for n
// lanes, every operand advancing by `stride` bytes per lane.  Callers:
// the pairwise block relabel and the single-lane generator application.
// ---------------------------------------------------------------------------

void shuffle_scalar(const std::uint8_t* tab, const std::uint8_t* idx,
                    std::uint8_t* out, std::size_t n, int stride) {
  const std::size_t w = static_cast<std::size_t>(stride);
  std::uint8_t tmp[kPermLaneBytes];
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t* tp = tab + i * w;
    const std::uint8_t* xp = idx + i * w;
    for (int p = 0; p < stride; ++p) tmp[p] = tp[xp[p]];
    std::memcpy(out + i * w, tmp, w);
  }
}

#if SCG_KERNELS_X86

__attribute__((target("ssse3,sse4.1"))) void shuffle_sse(
    const std::uint8_t* tab, const std::uint8_t* idx, std::uint8_t* out,
    std::size_t n, int stride) {
  if (stride == 16) {
    for (std::size_t i = 0; i < n; ++i) {
      const __m128i t =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(tab + i * 16));
      const __m128i x =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + i * 16));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i * 16),
                       _mm_shuffle_epi8(t, x));
    }
    return;
  }
  // 32-byte lanes: pshufb only indexes 16 bytes, so look the index up in
  // both halves of the table and select by idx >= 16.
  const __m128i fifteen = _mm_set1_epi8(15);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t* tp = tab + i * 32;
    const __m128i tlo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(tp));
    const __m128i thi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(tp + 16));
    const std::uint8_t* xp = idx + i * 32;
    std::uint8_t* op = out + i * 32;
    for (int h = 0; h < 32; h += 16) {
      const __m128i x =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(xp + h));
      const __m128i lo = _mm_shuffle_epi8(tlo, x);
      const __m128i hi = _mm_shuffle_epi8(thi, x);
      const __m128i take_hi = _mm_cmpgt_epi8(x, fifteen);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(op + h),
                       _mm_blendv_epi8(lo, hi, take_hi));
    }
  }
}

__attribute__((target("avx2"))) void shuffle_avx2(
    const std::uint8_t* tab, const std::uint8_t* idx, std::uint8_t* out,
    std::size_t n, int stride) {
  if (stride == 16) {
    // vpshufb shuffles its two 128-bit halves independently — exactly two
    // 16-byte permutation lanes per 256-bit op.
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      const __m256i t =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tab + i * 16));
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i * 16));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i * 16),
                          _mm256_shuffle_epi8(t, x));
    }
    if (i < n) {  // odd tail: one 128-bit lane
      const __m128i t =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(tab + i * 16));
      const __m128i x =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + i * 16));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i * 16),
                       _mm_shuffle_epi8(t, x));
    }
    return;
  }
  // 32-byte lanes: duplicate each table half across both 128-bit halves,
  // shuffle, and select by idx >= 16 (the usual cross-lane-lookup blend).
  const __m256i fifteen = _mm256_set1_epi8(15);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t* tp = tab + i * 32;
    const __m256i tlo = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(tp)));
    const __m256i thi = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(tp + 16)));
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i * 32));
    const __m256i lo = _mm256_shuffle_epi8(tlo, x);
    const __m256i hi = _mm256_shuffle_epi8(thi, x);
    const __m256i take_hi = _mm256_cmpgt_epi8(x, fifteen);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i * 32),
                        _mm256_blendv_epi8(lo, hi, take_hi));
  }
}

#endif  // SCG_KERNELS_X86

// ---------------------------------------------------------------------------
// Tier detection / dispatch
// ---------------------------------------------------------------------------

KernelTier detect_tier() {
#if SCG_KERNELS_X86
  if (__builtin_cpu_supports("avx2")) return KernelTier::kAvx2;
  if (__builtin_cpu_supports("ssse3") && __builtin_cpu_supports("sse4.1")) {
    return KernelTier::kSse;
  }
#endif
  return KernelTier::kScalar;
}

std::atomic<KernelTier>& tier_ref() {
  static std::atomic<KernelTier> tier{detect_tier()};
  return tier;
}

void shuffle_dispatch(const std::uint8_t* tab, const std::uint8_t* idx,
                      std::uint8_t* out, std::size_t n, int stride) {
  switch (tier_ref().load(std::memory_order_relaxed)) {
#if SCG_KERNELS_X86
    case KernelTier::kAvx2:
      shuffle_avx2(tab, idx, out, n, stride);
      return;
    case KernelTier::kSse:
      shuffle_sse(tab, idx, out, n, stride);
      return;
#endif
    default:
      shuffle_scalar(tab, idx, out, n, stride);
  }
}

// ---------------------------------------------------------------------------
// Myrvold–Ruskey unrank of one lane as one serial divmod/swap chain: the
// path unrank takes when the fused one below does not apply (k > 16, or the
// scalar tier).  The caller writes the identity padding first.
// ---------------------------------------------------------------------------

void unrank_chain(int k, std::uint64_t rank, std::uint8_t* lane) {
  for (int n = k; n > 1; --n) {
    std::uint64_t rem;
    rank = detail::divmod(rank, n, rem);
    const std::uint8_t tmp = lane[n - 1];
    lane[n - 1] = lane[rem];
    lane[rem] = tmp;
  }
}

#if SCG_KERNELS_X86

// ---------------------------------------------------------------------------
// Fused-radix unrank (SSSE3 and above, k <= 16).
//
// The chain above is latency-bound: each state's divmod sequence is serial,
// and the fixup branch in detail::divmod mispredicts on the early
// (large-remainder) steps.  The fused path attacks the chain itself:
//
//   * The Myrvold–Ruskey remainders are the digits of the rank in the mixed
//     radix (k, k-1, ..., 2), so dividing by D = n*(n-1)*(n-2) extracts
//     three digits per chain step — the serial reciprocal-multiply chain is
//     a third as long, and the fixup is branchless (undershoot of
//     floor(2^64/D) is at most one for any divisor).
//   * The per-group remainder R < D indexes a table of pre-composed shuffle
//     masks: the three swaps a group contributes, applied to the identity.
//     Applying a group to the running state is then one 16-byte load and
//     one pshufb — no digit splitting, no byte-store swap chain.
//
// Both phases are exact, so the output is byte-identical to the scalar
// chain.  The mask tables for every group top 2..16 total ~230 KiB, built
// once on first use.  k > 16 (32-byte lanes) stays on the chain above.
// ---------------------------------------------------------------------------

constexpr int kFusedMaxK = 16;

struct FusedGroup {
  std::uint64_t recip;        // floor(2^64 / divisor)
  std::uint64_t divisor;      // product of the group's 1..3 bases
  const std::uint8_t* masks;  // divisor pre-composed 16-byte shuffle masks
};

struct FusedSchedule {
  FusedGroup group[6];
  int groups;
};

// Bases are taken greedily from the top: {n, n-1, n-2} while n >= 4, then a
// pair at n == 3 or a single at n == 2 finishes the chain.
int fused_group_width(int n) { return n >= 4 ? 3 : n - 1; }

struct FusedTables {
  std::vector<std::uint8_t> masks[kFusedMaxK + 1];  // indexed by group top
  FusedSchedule sched[kFusedMaxK + 1] = {};

  FusedTables() {
    for (int n0 = 2; n0 <= kFusedMaxK; ++n0) {
      const int cnt = fused_group_width(n0);
      std::uint64_t d = 1;
      for (int i = 0; i < cnt; ++i) d *= static_cast<std::uint64_t>(n0 - i);
      masks[n0].resize(static_cast<std::size_t>(d) * 16);
      for (std::uint64_t r = 0; r < d; ++r) {
        // Composing a transposition into a shuffle mask just swaps the two
        // mask bytes, so the mask for remainder r is the group's swap
        // sequence applied to the identity — exactly the scalar chain.
        std::uint8_t* m = &masks[n0][r * 16];
        std::memcpy(m, kIota, 16);
        std::uint64_t x = r;
        for (int i = 0; i < cnt; ++i) {
          const int n = n0 - i;
          const std::uint64_t rem = x % static_cast<std::uint64_t>(n);
          x /= static_cast<std::uint64_t>(n);
          const std::uint8_t tmp = m[n - 1];
          m[n - 1] = m[rem];
          m[rem] = tmp;
        }
      }
    }
    for (int k = 2; k <= kFusedMaxK; ++k) {
      FusedSchedule& s = sched[k];
      int n = k;
      while (n > 1) {
        const int cnt = fused_group_width(n);
        std::uint64_t d = 1;
        for (int i = 0; i < cnt; ++i) d *= static_cast<std::uint64_t>(n - i);
        const std::uint64_t recip = static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(1) << 64) / d);
        s.group[s.groups++] = {recip, d, masks[n].data()};
        n -= cnt;
      }
    }
  }
};

const FusedTables& fused_tables() {
  static const FusedTables tables;
  return tables;
}

// One fused divmod: r -> r / divisor, remainder out.  floor(2^64/d)
// undershoots the true quotient by at most one (the error term is
// r * (2^64 mod d) / 2^64 / d < 1), and the fixup compiles to cmov — the
// data-dependent branch in detail::divmod is what serializes the scalar
// chain on early steps.
inline std::uint64_t fused_divmod(std::uint64_t r, const FusedGroup& g,
                                  std::uint64_t& rem) {
  std::uint64_t q = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(r) * g.recip) >> 64);
  std::uint64_t rr = r - q * g.divisor;
  const bool fix = rr >= g.divisor;
  q += fix;
  rr -= fix ? g.divisor : 0;
  rem = rr;
  return q;
}

__attribute__((target("ssse3"))) void unrank_fused1(const FusedSchedule& s,
                                                    std::uint64_t rank,
                                                    std::uint8_t* lane) {
  __m128i st = _mm_loadu_si128(reinterpret_cast<const __m128i*>(kIota));
  for (int t = 0; t < s.groups; ++t) {
    std::uint64_t rem;
    rank = fused_divmod(rank, s.group[t], rem);
    st = _mm_shuffle_epi8(
        st, _mm_loadu_si128(reinterpret_cast<const __m128i*>(s.group[t].masks +
                                                             rem * 16)));
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(lane), st);
}

// Four states in lockstep with explicit scalar locals: the four reciprocal
// chains stay in registers and overlap, and the mask loads sit off the
// pshufb chain.
__attribute__((target("ssse3"))) void unrank_fused4(
    const FusedSchedule& s, const std::uint64_t* ranks, std::uint8_t* base,
    std::size_t stride) {
  std::uint64_t r0 = ranks[0], r1 = ranks[1], r2 = ranks[2], r3 = ranks[3];
  const __m128i iota = _mm_loadu_si128(reinterpret_cast<const __m128i*>(kIota));
  __m128i s0 = iota, s1 = iota, s2 = iota, s3 = iota;
  for (int t = 0; t < s.groups; ++t) {
    const FusedGroup& g = s.group[t];
    std::uint64_t m0, m1, m2, m3;
    r0 = fused_divmod(r0, g, m0);
    r1 = fused_divmod(r1, g, m1);
    r2 = fused_divmod(r2, g, m2);
    r3 = fused_divmod(r3, g, m3);
    const std::uint8_t* mk = g.masks;
    s0 = _mm_shuffle_epi8(
        s0, _mm_loadu_si128(reinterpret_cast<const __m128i*>(mk + m0 * 16)));
    s1 = _mm_shuffle_epi8(
        s1, _mm_loadu_si128(reinterpret_cast<const __m128i*>(mk + m1 * 16)));
    s2 = _mm_shuffle_epi8(
        s2, _mm_loadu_si128(reinterpret_cast<const __m128i*>(mk + m2 * 16)));
    s3 = _mm_shuffle_epi8(
        s3, _mm_loadu_si128(reinterpret_cast<const __m128i*>(mk + m3 * 16)));
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(base + 0 * stride), s0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(base + 1 * stride), s1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(base + 2 * stride), s2);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(base + 3 * stride), s3);
}

// True when the active tier may take the fused path for this k.  Any x86
// tier above scalar implies SSSE3.
bool use_fused(int k) {
  return k >= 2 && k <= kFusedMaxK &&
         tier_ref().load(std::memory_order_relaxed) != KernelTier::kScalar;
}

#endif  // SCG_KERNELS_X86

}  // namespace

// ---------------------------------------------------------------------------
// Lane helpers
// ---------------------------------------------------------------------------

PermLane make_table_lane(const std::uint8_t* tab, int k) {
  SCG_CHECK(k >= 1 && k <= kMaxSymbols, "make_table_lane: k = %d", k);
  PermLane lane;
  std::memcpy(lane.b, kIota, sizeof lane.b);
  std::memcpy(lane.b, tab, static_cast<std::size_t>(k));
  return lane;
}

PermLane make_perm_lane(const Permutation& p) {
  PermLane lane;
  std::memcpy(lane.b, kIota, sizeof lane.b);
  for (int i = 0; i < p.size(); ++i) {
    lane.b[i] = static_cast<std::uint8_t>(p[i] - 1);
  }
  return lane;
}

// ---------------------------------------------------------------------------
// Tier control
// ---------------------------------------------------------------------------

const char* kernel_tier_name(KernelTier t) {
  switch (t) {
    case KernelTier::kScalar:
      return "scalar";
    case KernelTier::kSse:
      return "ssse3+sse4.1";
    case KernelTier::kAvx2:
      return "avx2";
  }
  return "?";
}

KernelTier active_kernel_tier() {
  return tier_ref().load(std::memory_order_relaxed);
}

std::vector<KernelTier> supported_kernel_tiers() {
  std::vector<KernelTier> tiers{KernelTier::kScalar};
#if SCG_KERNELS_X86
  if (__builtin_cpu_supports("ssse3") && __builtin_cpu_supports("sse4.1")) {
    tiers.push_back(KernelTier::kSse);
  }
  if (__builtin_cpu_supports("avx2")) tiers.push_back(KernelTier::kAvx2);
#endif
  return tiers;
}

bool set_active_kernel_tier(KernelTier t) {
  for (const KernelTier s : supported_kernel_tiers()) {
    if (s == t) {
      tier_ref().store(t, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// PermBlock
// ---------------------------------------------------------------------------

void PermBlock::resize(int k, std::size_t n) {
  SCG_CHECK(k >= 1 && k <= kMaxSymbols, "PermBlock::resize: k = %d", k);
  k_ = k;
  stride_ = k <= 16 ? 16 : kPermLaneBytes;
  n_ = n;
  const std::size_t units =
      (n * stride_ + sizeof(PermLane) - 1) / sizeof(PermLane);
  if (storage_.size() < units) storage_.resize(units);
}

void PermBlock::set(std::size_t i, const Permutation& p) {
  SCG_DCHECK(i < n_ && p.size() == k_);
  std::uint8_t* l = lane(i);
  std::memcpy(l, kIota, stride_);
  for (int s = 0; s < k_; ++s) l[s] = static_cast<std::uint8_t>(p[s] - 1);
}

Permutation PermBlock::get(std::size_t i) const {
  SCG_DCHECK_LT(i, n_);
  const std::uint8_t* l = lane(i);
  std::uint8_t buf[kMaxSymbols];
  for (int s = 0; s < k_; ++s) buf[s] = static_cast<std::uint8_t>(l[s] + 1);
  return Permutation::from_symbols(
      std::span<const std::uint8_t>(buf, static_cast<std::size_t>(k_)));
}

// ---------------------------------------------------------------------------
// Batch primitives
// ---------------------------------------------------------------------------

namespace perm_kernels {

void relabel(const PermBlock& a, const PermBlock& relabel, PermBlock& out) {
  if (a.k() != relabel.k() || a.size() != relabel.size()) {
    throw std::invalid_argument(
        "perm_kernels::relabel: operand blocks differ in k or size");
  }
  out.resize(a.k(), a.size());
  shuffle_dispatch(relabel.data(), a.data(), out.data(), a.size(),
                   static_cast<int>(a.stride()));
}

void inverse(const PermBlock& a, PermBlock& out) {
  if (&out == &a) {
    throw std::invalid_argument("perm_kernels::inverse: out aliases input");
  }
  out.resize(a.k(), a.size());
  const int k = a.k();
  const int stride = static_cast<int>(a.stride());
  // A byte scatter has no shuffle form; process lane pairs so the two
  // independent store chains overlap.
  std::size_t i = 0;
  for (; i + 2 <= a.size(); i += 2) {
    const std::uint8_t* l0 = a.lane(i);
    const std::uint8_t* l1 = a.lane(i + 1);
    std::uint8_t* o0 = out.lane(i);
    std::uint8_t* o1 = out.lane(i + 1);
    for (int p = 0; p < k; ++p) {
      o0[l0[p]] = static_cast<std::uint8_t>(p);
      o1[l1[p]] = static_cast<std::uint8_t>(p);
    }
    for (int p = k; p < stride; ++p) {
      o0[p] = static_cast<std::uint8_t>(p);
      o1[p] = static_cast<std::uint8_t>(p);
    }
  }
  for (; i < a.size(); ++i) {
    const std::uint8_t* l = a.lane(i);
    std::uint8_t* o = out.lane(i);
    for (int p = 0; p < k; ++p) o[l[p]] = static_cast<std::uint8_t>(p);
    for (int p = k; p < stride; ++p) o[p] = static_cast<std::uint8_t>(p);
  }
}

void unrank(int k, std::span<const std::uint64_t> ranks, PermBlock& out) {
  out.resize(k, ranks.size());
#if SCG_KERNELS_X86
  if (use_fused(k)) {
    const FusedSchedule& s = fused_tables().sched[k];
    std::size_t i = 0;
    for (; i + 4 <= ranks.size(); i += 4) {
      unrank_fused4(s, ranks.data() + i, out.lane(i), out.stride());
    }
    for (; i < ranks.size(); ++i) {
      unrank_fused1(s, ranks[i], out.lane(i));
    }
    return;
  }
#endif
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    std::memcpy(out.lane(i), kIota, out.stride());
    unrank_chain(k, ranks[i], out.lane(i));
  }
}

void rank(const PermBlock& a, std::span<std::uint64_t> out) {
  if (out.size() != a.size()) {
    throw std::invalid_argument("perm_kernels::rank: output size mismatch");
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = rank_lane(a.lane(i), a.k());
  }
}

void unrank_lane(int k, std::uint64_t rank, std::uint8_t* lane) {
  std::memcpy(lane, kIota, kPermLaneBytes);
#if SCG_KERNELS_X86
  if (use_fused(k)) {
    unrank_fused1(fused_tables().sched[k], rank, lane);
    return;
  }
#endif
  unrank_chain(k, rank, lane);
}

std::uint64_t rank_lane(const std::uint8_t* lane, int k) {
  std::uint8_t pi[kMaxSymbols];
  std::uint8_t inv[kMaxSymbols];
  for (int i = 0; i < k; ++i) {
    pi[i] = lane[i];
    inv[lane[i]] = static_cast<std::uint8_t>(i);
  }
  // Positions and symbols >= n-1 are never read again, so the textbook
  // swaps halve to one store per array (the accumulated digits are
  // unchanged).
  std::uint64_t r = 0;
  std::uint64_t mult = 1;
  for (int n = k; n > 1; --n) {
    const std::uint8_t s = pi[n - 1];
    const std::uint8_t at = inv[n - 1];
    pi[at] = s;
    inv[s] = at;
    r += mult * s;
    mult *= static_cast<std::uint64_t>(n);
  }
  return r;
}

void apply_table_lane(std::uint8_t* lane, const PermLane& tab, int stride) {
  shuffle_dispatch(lane, tab.b, lane, 1, stride);
}

}  // namespace perm_kernels

}  // namespace scg
