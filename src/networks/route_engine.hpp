// Zero-allocation batch routing engine.
//
// The scalar route() in networks/router.hpp allocates a fresh word vector
// (and, inside the solvers, offset-search scratch) on every call.  That is
// fine for one-off queries but dominates the cost of all-pairs sweeps,
// traffic generation and fault-repair probing.  This engine provides:
//
//  * Allocation-free kernels: `route_into` / `route_rel_into` write the
//    generator word into a caller-provided RouteBuffer whose capacity is
//    reserved once from the family's word bound, and `route_length` walks
//    the same play through a counting sink without materialising anything.
//  * Batch solving: `route_batch` takes parallel src/dst rank arrays
//    (structure-of-arrays) and fans fixed-size chunks across the ThreadPool;
//    each chunk owns a reusable arena (concatenated words + offsets), so a
//    steady-state batch performs zero heap allocations.
//  * A sharded LRU route cache keyed on the *relative* permutation
//    W = V^{-1}∘U.  Super Cayley graphs are vertex-transitive and the route
//    word is a pure function of W (route() literally solves W), so one cache
//    entry serves every (U,V) pair with the same relative displacement —
//    all-to-all traffic on an N-node network hits after only N-1 solves.
//  * Precomputed recursive-macro-star nucleus expansions: the scalar router
//    re-derives the T_i -> inner-word table on every call; the engine builds
//    it once in the constructor.
//
// Thread-safety: all routing entry points are const and safe to call
// concurrently (the cache uses per-shard locks; per-thread scratch comes
// from `scratch()`).
#pragma once

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/perm_kernels.hpp"
#include "networks/super_cayley.hpp"
#include "parallel/thread_pool.hpp"

namespace scg {

// ---------------------------------------------------------------------------
// Stateless kernels (shared by the engine and the scalar route()).
// ---------------------------------------------------------------------------

/// Conservative upper bound on the word length route() can emit for `net`
/// (closed-form, derived from the solver step bounds in core/bag.hpp).  Used
/// to size arenas once; kernels fall back to vector growth in the unlikely
/// event a play exceeds it, so it is a capacity hint, not a correctness
/// contract.
int route_word_bound(const NetworkSpec& net);

/// The recursive-macro-star nucleus expansion table: expand[i] (i in
/// 2..n+1) is the inner-MS(l1,n1) word realising the outer transposition
/// T_i.  T_i is an involution, so the word is state-independent.
std::vector<std::vector<Generator>> rms_expansions(const NetworkSpec& net);

/// Scalar kernel behind route(): clears `out` and appends the word sorting
/// the relative permutation `w` to the identity, using `scratch` for the
/// solvers' offset search.  `rms_expand` supplies a precomputed expansion
/// table for recursive macro-stars (pass nullptr to derive it per call, as
/// the legacy router did).  Returns the word length.
int route_word_into(const NetworkSpec& net, const Permutation& w,
                    std::vector<Generator>& out,
                    std::vector<Generator>& scratch,
                    const std::vector<std::vector<Generator>>* rms_expand =
                        nullptr);

/// Counting twin of route_word_into: the length of exactly the word it
/// would emit, with zero heap allocation.  `rms_expand_len` supplies the
/// expansion *lengths* (indexed by the outer T_i subscript) for recursive
/// macro-stars; pass empty to derive them per call.
int route_word_count(const NetworkSpec& net, const Permutation& w,
                     std::span<const int> rms_expand_len = {});

// ---------------------------------------------------------------------------
// RouteBuffer — caller-owned solver arena.
// ---------------------------------------------------------------------------

/// Word + offset-search scratch for the zero-allocation kernels.  Reserve
/// once (route_word_bound) and reuse; after the first few calls the buffer
/// reaches steady state and the kernels stop allocating.
struct RouteBuffer {
  std::vector<Generator> word;
  std::vector<Generator> scratch;

  void reserve(std::size_t capacity) {
    if (word.capacity() < capacity) word.reserve(capacity);
    if (scratch.capacity() < capacity) scratch.reserve(capacity);
  }
};

// ---------------------------------------------------------------------------
// RouteBatch — structure-of-arrays batch output.
// ---------------------------------------------------------------------------

/// Output of RouteEngine::route_batch: per-chunk arenas holding the
/// concatenated generator words plus an offset array, addressed by the
/// original pair index.  Reuse the same RouteBatch across batches to keep
/// the arenas' capacity (steady-state batches allocate nothing).
class RouteBatch {
 public:
  /// Number of routed pairs.
  std::size_t size() const { return size_; }

  /// The generator word of pair `i` (valid until the next route_batch call).
  std::span<const Generator> word(std::size_t i) const {
    const Chunk& ch = chunk_of(i);
    const std::size_t r = i - ch.lo;
    return {ch.words.data() + ch.off[r],
            static_cast<std::size_t>(ch.off[r + 1] - ch.off[r])};
  }

  /// Hop count of pair `i`.
  int length(std::size_t i) const {
    const Chunk& ch = chunk_of(i);
    const std::size_t r = i - ch.lo;
    return static_cast<int>(ch.off[r + 1] - ch.off[r]);
  }

  /// Total hops across the batch.
  std::uint64_t total_length() const;

 private:
  friend class RouteEngine;

  struct Chunk {
    std::uint64_t lo = 0;             ///< first pair index (inclusive)
    std::uint64_t hi = 0;             ///< last pair index (exclusive)
    RouteBuffer buf;                  ///< solver scratch for this chunk
    std::vector<Generator> words;     ///< concatenated words of [lo, hi)
    std::vector<std::uint32_t> off;   ///< hi-lo+1 offsets into `words`
    /// Kernel scratch: the chunk's sources/destinations are batch-unranked
    /// and turned into relative permutations W = V^{-1}∘U (plus their cache
    /// keys) by the perm_kernels layer before any solver runs.
    PermBlock srcs, dsts, inv_dsts, rel;
    std::vector<std::uint64_t> keys;
  };

  const Chunk& chunk_of(std::size_t i) const;

  std::size_t size_ = 0;
  std::size_t used_chunks_ = 0;
  std::vector<Chunk> chunks_;
};

// ---------------------------------------------------------------------------
// RouteEngine
// ---------------------------------------------------------------------------

struct RouteEngineConfig {
  /// Cached route words across all shards; 0 disables the cache.
  std::size_t cache_capacity = std::size_t{1} << 15;
  /// Lock shards (rounded up to a power of two, at least 1).
  int cache_shards = 8;
};

struct RouteCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;  ///< currently resident words
};

/// Allocation-free scalar + batch router for one NetworkSpec.  The spec must
/// outlive the engine.
class RouteEngine {
 public:
  explicit RouteEngine(const NetworkSpec& net, RouteEngineConfig cfg = {});
  ~RouteEngine();

  RouteEngine(const RouteEngine&) = delete;
  RouteEngine& operator=(const RouteEngine&) = delete;

  const NetworkSpec& spec() const { return *net_; }

  /// The capacity every RouteBuffer used with this engine is reserved to.
  int word_bound() const { return bound_; }

  /// Routes from -> to into `buf.word` and returns a view of it (valid until
  /// the buffer is next used).  Cache-aware: a hit memcpys the cached word,
  /// a miss solves into the buffer and inserts a copy.
  std::span<const Generator> route_into(const Permutation& from,
                                        const Permutation& to,
                                        RouteBuffer& buf) const;

  /// Same, but takes the relative permutation W = V^{-1}∘U directly.
  std::span<const Generator> route_rel_into(const Permutation& w,
                                            RouteBuffer& buf) const;

  /// route_rel_into with the cache key (rank of `w`) already in hand —
  /// route_batch ranks a whole chunk's relative permutations with
  /// perm_kernels::rank, so no Permutation::rank runs per request.  `key`
  /// is ignored when the cache is off.
  std::span<const Generator> route_rel_keyed(const Permutation& w,
                                             std::uint64_t key,
                                             RouteBuffer& buf) const;

  /// Hop count of the word route_into would produce; zero allocation.  On a
  /// cache hit returns the cached length; on a miss runs the counting kernel
  /// (without inserting — no word is materialised to cache).
  int route_length(const Permutation& from, const Permutation& to) const;
  int route_length_rel(const Permutation& w) const;

  /// A per-(thread, engine) RouteBuffer, already reserved to word_bound().
  /// Convenient for call sites without a natural buffer home; the span
  /// returned by route_into(.., scratch()) is invalidated by the next
  /// scratch()-based call on the same thread.
  RouteBuffer& scratch() const;

  /// Routes every (src[i], dst[i]) rank pair, filling `out` (structure of
  /// arrays).  Chunks are fanned across `pool` (global pool by default) and
  /// solved with the same cache-aware kernels as route_into, so batch words
  /// are byte-identical to scalar ones.  Throws if the spans' sizes differ.
  void route_batch(std::span<const std::uint64_t> src,
                   std::span<const std::uint64_t> dst, RouteBatch& out,
                   ThreadPool* pool = nullptr) const;

  /// Replays `word` from the node with rank `src_rank` using compiled
  /// per-generator position tables, appending every visited rank (including
  /// the start) to `out` after clearing it.  Requires num_nodes <= 2^32.
  void expand_path(std::uint64_t src_rank, std::span<const Generator> word,
                   std::vector<std::uint32_t>& out) const;

  /// Pointer form of expand_path for arena-backed batches: writes exactly
  /// word.size() + 1 ranks at `out` (caller guarantees the capacity).
  void expand_path_into(std::uint64_t src_rank,
                        std::span<const Generator> word,
                        std::uint32_t* out) const;

  RouteCacheStats cache_stats() const;
  void clear_cache();

  /// Number of lock shards in the route cache (0 when caching is off).
  std::size_t cache_shard_count() const { return shards_ ? shard_mask_ + 1 : 0; }

  /// The shard that holds relative-permutation key `rel_rank` (0 with the
  /// cache off).  The serving layer pins each worker to a disjoint shard
  /// group so translation-equivalent requests meet on one worker and an
  /// uncontended shard.
  std::size_t cache_shard_of(std::uint64_t rel_rank) const;

 private:
  struct CacheShard;

  int solve_rel(const Permutation& w, std::vector<Generator>& out,
                std::vector<Generator>& scratch) const;
  CacheShard* shard_for(std::uint64_t key) const;

  const NetworkSpec* net_;
  RouteEngineConfig cfg_;
  int bound_ = 0;

  /// Compiled generator tables (the NetworkView lowering): tab[p] is the
  /// source index of the symbol landing at position p, prefix_len the
  /// number of leading positions actually moved.
  struct CompiledGen {
    std::array<std::uint8_t, kMaxSymbols> tab{};
    int prefix_len = 0;
    PermLane lane{};  ///< `tab` identity-padded for the shuffle kernels
  };
  std::vector<CompiledGen> compiled_;
  /// (kind, i, n) -> index into compiled_, -1 if not a generator of net_.
  std::vector<std::int16_t> gen_index_;

  /// Recursive macro-star expansion table (empty for other families).
  std::vector<std::vector<Generator>> rms_expand_;
  std::vector<int> rms_expand_len_;

  std::size_t shard_mask_ = 0;
  std::size_t per_shard_capacity_ = 0;
  std::unique_ptr<CacheShard[]> shards_;
};

}  // namespace scg
