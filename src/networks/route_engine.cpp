#include "networks/route_engine.hpp"

#include <algorithm>
#include <list>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/thread_annotations.hpp"
#include "parallel/parallel_for.hpp"

namespace scg {
namespace {

/// Worst number of super moves one box fetch can cost under `style`.
int box_fetch_worst(int l, BoxMoveStyle style) {
  if (l <= 2) return 1;
  switch (style) {
    case BoxMoveStyle::kSwap:
    case BoxMoveStyle::kCompleteRotation:
      return 1;
    case BoxMoveStyle::kBidirectionalRotation:
      // Any shift s costs min(s, l-s) steps over {R^1, R^{l-1}}.
      return l / 2;
    case BoxMoveStyle::kForwardRotation:
      return l - 1;
  }
  return 1;
}

// Baseline Cayley routers: each clears `out`, appends its word and returns
// the word length.

/// Bubble-sort graph: sort by adjacent exchanges; exactly inversions(w)
/// moves, which is the graph distance.
int bubble_sort_route(Permutation w, std::vector<Generator>& out) {
  out.clear();
  const int k = w.size();
  bool changed = true;
  while (changed) {
    changed = false;
    for (int i = 0; i + 1 < k; ++i) {
      if (w[i] > w[i + 1]) {
        const Generator g = exchange(i + 1, i + 2);
        g.apply(w);
        out.push_back(g);
        changed = true;
      }
    }
  }
  return static_cast<int>(out.size());
}

/// Complete transposition network: cycle-by-cycle placement; exactly
/// k - #cycles moves, which is the graph distance.
int transposition_network_route(Permutation w, std::vector<Generator>& out) {
  out.clear();
  const int k = w.size();
  for (int p = 1; p <= k; ++p) {
    while (w[p - 1] != p) {
      const Generator g = exchange(p, w[p - 1]);
      g.apply(w);
      out.push_back(g);
    }
  }
  return static_cast<int>(out.size());
}

/// Greedy pancake router: bring the largest misplaced element to the front,
/// flip it home; at most 2(k-1) flips.
int pancake_route(Permutation w, std::vector<Generator>& out) {
  out.clear();
  const int k = w.size();
  for (int target = k; target >= 2; --target) {
    if (w[target - 1] == target) continue;
    const int pos = w.index_of(static_cast<std::uint8_t>(target));
    if (pos != 0) {
      const Generator up = reversal(pos + 1);
      up.apply(w);
      out.push_back(up);
    }
    const Generator down = reversal(target);
    down.apply(w);
    out.push_back(down);
  }
  return static_cast<int>(out.size());
}

/// Recursive macro-star: solve the outer game into `scratch` (kSwap uses a
/// single offset, so `out` is free to lend as the solver's scratch slot),
/// then expand every outer T_i into its nucleus word in `out`.
int rms_route_into(const NetworkSpec& net, const Permutation& w,
                   std::vector<Generator>& out, std::vector<Generator>& scratch) {
  solve_transposition_game_into(w, net.l, net.n, BoxMoveStyle::kSwap, scratch,
                                out);
  out.clear();
  for (const Generator& g : scratch) {
    if (g.kind == GenKind::kTransposition) {
      const std::vector<Generator>& word =
          net.nucleus_words[static_cast<std::size_t>(g.i - 2)];
      out.insert(out.end(), word.begin(), word.end());
    } else {
      out.push_back(g);
    }
  }
  return static_cast<int>(out.size());
}

/// Dense (kind, i, n) key for the compiled-generator lookup, or -1 when the
/// descriptor is outside the table (never true for a spec's generators).
int gen_key(const Generator& g) {
  if (g.i < 0 || g.i > kMaxSymbols || g.n < 0 || g.n > kMaxSymbols) return -1;
  return (static_cast<int>(g.kind) * (kMaxSymbols + 1) + g.i) *
             (kMaxSymbols + 1) +
         g.n;
}
constexpr std::size_t kGenKeySpace =
    std::size_t{7} * (kMaxSymbols + 1) * (kMaxSymbols + 1);

/// Lock shards of the route cache (a power of two).
constexpr std::size_t kCacheShards = 8;

}  // namespace

int route_word_bound(const NetworkSpec& net) {
  const int k = net.k();
  switch (net.family) {
    case Family::kMacroStar:
    case Family::kStar:
      return balls_to_boxes_step_bound(net.l, net.n);
    case Family::kRotationStar:
      return balls_to_boxes_step_bound(net.l, net.n) *
             box_fetch_worst(net.l, BoxMoveStyle::kBidirectionalRotation);
    case Family::kCompleteRotationStar:
      return complete_rotation_star_step_bound(net.l, net.n);
    case Family::kMacroRotator:
    case Family::kMacroIS:
      return insertion_game_step_bound(net.l, net.n, BoxMoveStyle::kSwap);
    case Family::kRotationRotator:
      return insertion_game_step_bound(net.l, net.n,
                                       BoxMoveStyle::kForwardRotation);
    case Family::kRotationIS:
      return insertion_game_step_bound(net.l, net.n,
                                       BoxMoveStyle::kBidirectionalRotation);
    case Family::kCompleteRotationRotator:
    case Family::kCompleteRotationIS:
      return insertion_game_step_bound(net.l, net.n,
                                       BoxMoveStyle::kCompleteRotation);
    case Family::kInsertionSelection:
    case Family::kRotator:
      return k - 1;
    case Family::kBubbleSort:
      return k * (k - 1) / 2;
    case Family::kTranspositionNetwork:
      return k - 1;
    case Family::kPancake:
      return 2 * (k - 1);
    case Family::kPartialRotationStar:
      return balls_to_boxes_step_bound(net.l, net.n) *
             rotation_shift_worst(net.l, net.rotations);
    case Family::kPartialRotationIS: {
      const int worst = rotation_shift_worst(net.l, net.rotations);
      const int insertions = (k - 1) + net.l;
      return insertions * (1 + worst) + net.l * worst;
    }
    case Family::kRecursiveMacroStar:
      return balls_to_boxes_step_bound(net.l, net.n) *
             std::max(1, balls_to_boxes_step_bound(net.l1, net.n1));
  }
  throw std::logic_error("route_word_bound: unknown family");
}

int route_word_into(const NetworkSpec& net, const Permutation& w,
                    std::vector<Generator>& out,
                    std::vector<Generator>& scratch) {
  switch (net.family) {
    case Family::kMacroStar:
    case Family::kStar:
      return solve_transposition_game_into(w, net.l, net.n,
                                           BoxMoveStyle::kSwap, out, scratch);
    case Family::kRotationStar:
      return solve_transposition_game_into(
          w, net.l, net.n, BoxMoveStyle::kBidirectionalRotation, out, scratch);
    case Family::kCompleteRotationStar:
      return solve_transposition_game_into(
          w, net.l, net.n, BoxMoveStyle::kCompleteRotation, out, scratch);
    case Family::kMacroRotator:
    case Family::kMacroIS:
      return solve_insertion_game_into(w, net.l, net.n, BoxMoveStyle::kSwap,
                                       out, scratch);
    case Family::kRotationRotator:
      return solve_insertion_game_into(
          w, net.l, net.n, BoxMoveStyle::kForwardRotation, out, scratch);
    case Family::kRotationIS:
      return solve_insertion_game_into(
          w, net.l, net.n, BoxMoveStyle::kBidirectionalRotation, out, scratch);
    case Family::kCompleteRotationRotator:
    case Family::kCompleteRotationIS:
      return solve_insertion_game_into(
          w, net.l, net.n, BoxMoveStyle::kCompleteRotation, out, scratch);
    case Family::kInsertionSelection:
    case Family::kRotator:
      return solve_one_box_insertion_into(w, out, scratch);
    case Family::kBubbleSort:
      return bubble_sort_route(w, out);
    case Family::kTranspositionNetwork:
      return transposition_network_route(w, out);
    case Family::kPancake:
      return pancake_route(w, out);
    case Family::kPartialRotationStar:
      return solve_transposition_game_custom_rotations_into(
          w, net.l, net.n, net.rotations, out, scratch);
    case Family::kPartialRotationIS:
      return solve_insertion_game_custom_rotations_into(
          w, net.l, net.n, net.rotations, out, scratch);
    case Family::kRecursiveMacroStar:
      return rms_route_into(net, w, out, scratch);
  }
  throw std::logic_error("route_word_into: unknown family");
}

// ---------------------------------------------------------------------------
// RouteBatch
// ---------------------------------------------------------------------------

const RouteBatch::Chunk& RouteBatch::chunk_of(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("RouteBatch: index past batch end");
  std::size_t lo = 0;
  std::size_t hi = used_chunks_;
  while (hi - lo > 1) {
    const std::size_t mid = (lo + hi) / 2;
    if (chunks_[mid].lo <= i) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return chunks_[lo];
}

std::uint64_t RouteBatch::total_length() const {
  std::uint64_t total = 0;
  for (std::size_t c = 0; c < used_chunks_; ++c) {
    total += chunks_[c].off.empty() ? 0 : chunks_[c].off.back();
  }
  return total;
}

// ---------------------------------------------------------------------------
// RouteEngine
// ---------------------------------------------------------------------------

struct RouteEngine::CacheShard {
  Mutex mu;
  /// Front = most recently used.  Intrusive iterators from the map keep
  /// lookups O(1); splice keeps promotion allocation-free.
  std::list<std::pair<std::uint64_t, std::vector<Generator>>> lru
      SCG_GUARDED_BY(mu);
  std::unordered_map<std::uint64_t,
                     std::list<std::pair<std::uint64_t,
                                         std::vector<Generator>>>::iterator>
      map SCG_GUARDED_BY(mu);
  std::uint64_t hits SCG_GUARDED_BY(mu) = 0;
  std::uint64_t misses SCG_GUARDED_BY(mu) = 0;
  std::uint64_t evictions SCG_GUARDED_BY(mu) = 0;
};

RouteEngine::RouteEngine(const NetworkSpec& net, RouteEngineConfig cfg)
    : net_(&net), bound_(route_word_bound(net)) {
  const int k = net.k();
  lanes_.reserve(net.generators.size());
  gen_index_.assign(kGenKeySpace, -1);
  for (const Generator& g : net.generators) {
    const Permutation pos = g.as_position_permutation(k);
    std::uint8_t tab[kMaxSymbols] = {};
    for (int p = 0; p < k; ++p) tab[p] = static_cast<std::uint8_t>(pos[p] - 1);
    const int key = gen_key(g);
    if (key >= 0) {
      gen_index_[static_cast<std::size_t>(key)] =
          static_cast<std::int16_t>(lanes_.size());
    }
    lanes_.push_back(make_table_lane(tab, k));
  }
  if (cfg.cache_capacity > 0) {
    per_shard_capacity_ =
        std::max<std::size_t>(1, cfg.cache_capacity / kCacheShards);
    shards_ = std::make_unique<CacheShard[]>(kCacheShards);
  }
}

RouteEngine::~RouteEngine() = default;

RouteEngine::CacheShard* RouteEngine::shard_for(std::uint64_t key) const {
  const std::uint64_t h = key * 0x9e3779b97f4a7c15ULL;
  return &shards_[(h >> 32) & (kCacheShards - 1)];
}

std::span<const Generator> RouteEngine::route_rel_into(const Permutation& w,
                                                       RouteBuffer& buf) const {
  return route_rel_keyed(w, shards_ != nullptr ? w.rank() : 0, buf);
}

std::span<const Generator> RouteEngine::route_rel_keyed(const Permutation& w,
                                                        std::uint64_t key,
                                                        RouteBuffer& buf) const {
  buf.reserve(static_cast<std::size_t>(bound_));
  if (shards_ == nullptr) {
    route_word_into(*net_, w, buf.word, buf.scratch);
    return {buf.word.data(), buf.word.size()};
  }
  CacheShard& sh = *shard_for(key);
  {
    MutexLock lk(sh.mu);
    const auto it = sh.map.find(key);
    if (it != sh.map.end()) {
      sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
      ++sh.hits;
      buf.word.assign(it->second->second.begin(), it->second->second.end());
      return {buf.word.data(), buf.word.size()};
    }
    ++sh.misses;
  }
  // Solve outside the lock; a racing thread may insert the same key first,
  // in which case we keep its (identical) entry.
  route_word_into(*net_, w, buf.word, buf.scratch);
  {
    MutexLock lk(sh.mu);
    if (sh.map.find(key) == sh.map.end()) {
      sh.lru.emplace_front(
          key, std::vector<Generator>(buf.word.begin(), buf.word.end()));
      sh.map.emplace(key, sh.lru.begin());
      if (sh.map.size() > per_shard_capacity_) {
        sh.map.erase(sh.lru.back().first);
        sh.lru.pop_back();
        ++sh.evictions;
      }
    }
  }
  return {buf.word.data(), buf.word.size()};
}

std::span<const Generator> RouteEngine::route_into(const Permutation& from,
                                                   const Permutation& to,
                                                   RouteBuffer& buf) const {
  if (from.size() != net_->k() || to.size() != net_->k()) {
    throw std::invalid_argument("route_into: permutation size != k");
  }
  return route_rel_into(from.relabel_symbols(to.inverse()), buf);
}

int RouteEngine::route_length_rel(const Permutation& w) const {
  // Not scratch(): FaultRouter::route holds a span into it while it asks.
  thread_local RouteBuffer buf;
  return static_cast<int>(route_rel_into(w, buf).size());
}

int RouteEngine::route_length(const Permutation& from,
                              const Permutation& to) const {
  if (from.size() != net_->k() || to.size() != net_->k()) {
    throw std::invalid_argument("route_length: permutation size != k");
  }
  return route_length_rel(from.relabel_symbols(to.inverse()));
}

RouteBuffer& RouteEngine::scratch() const {
  thread_local RouteBuffer buf;
  buf.reserve(static_cast<std::size_t>(bound_));
  return buf;
}

void RouteEngine::route_batch(std::span<const std::uint64_t> src,
                              std::span<const std::uint64_t> dst,
                              RouteBatch& out, ThreadPool* pool) const {
  if (src.size() != dst.size()) {
    throw std::invalid_argument("route_batch: src/dst size mismatch");
  }
  const std::uint64_t nodes = net_->num_nodes();
  for (std::size_t i = 0; i < src.size(); ++i) {
    if (src[i] >= nodes || dst[i] >= nodes) {
      throw std::out_of_range("route_batch: rank past num_nodes");
    }
  }
  const int k = net_->k();
  out.size_ = src.size();
  out.used_chunks_ = 0;
  parallel_for_chunks_indexed(
      src.size(),
      [&out](std::uint64_t used) {
        if (out.chunks_.size() < used) out.chunks_.resize(used);
        out.used_chunks_ = static_cast<std::size_t>(used);
      },
      [&](std::uint64_t lo, std::uint64_t hi, std::uint64_t c) {
        RouteBatch::Chunk& ch = out.chunks_[c];
        ch.lo = lo;
        ch.hi = hi;
        ch.buf.reserve(static_cast<std::size_t>(bound_));
        ch.words.clear();
        ch.off.clear();
        ch.off.reserve(static_cast<std::size_t>(hi - lo + 1));
        ch.off.push_back(0);
        // Kernel front end: batch-unrank the whole chunk, invert the
        // destinations and form W = V^{-1}∘U (plus cache keys, ranked only
        // when the cache is on) with the perm_kernels layer; the solvers
        // then consume one relative permutation per pair, exactly as the
        // scalar path would have built it.
        const std::size_t n = hi - lo;
        perm_kernels::unrank(k, src.subspan(lo, n), ch.srcs);
        perm_kernels::unrank(k, dst.subspan(lo, n), ch.dsts);
        perm_kernels::inverse(ch.dsts, ch.inv_dsts);
        perm_kernels::relabel(ch.srcs, ch.inv_dsts, ch.rel);
        if (shards_ != nullptr) {
          ch.keys.resize(n);
          perm_kernels::rank(ch.rel, ch.keys);
        }
        for (std::size_t i = 0; i < n; ++i) {
          const std::span<const Generator> word = route_rel_keyed(
              ch.rel.get(i), shards_ != nullptr ? ch.keys[i] : 0, ch.buf);
          ch.words.insert(ch.words.end(), word.begin(), word.end());
          ch.off.push_back(static_cast<std::uint32_t>(ch.words.size()));
        }
      },
      /*grain=*/256, pool);
}

void RouteEngine::expand_path(std::uint64_t src_rank,
                              std::span<const Generator> word,
                              std::vector<std::uint32_t>& out) const {
  if (net_->num_nodes() > (std::uint64_t{1} << 32)) {
    throw std::invalid_argument("expand_path: ranks exceed 32 bits");
  }
  out.clear();
  out.resize(word.size() + 1);
  expand_path_into(src_rank, word, out.data());
}

void RouteEngine::expand_path_into(std::uint64_t src_rank,
                                   std::span<const Generator> word,
                                   std::uint32_t* out) const {
  // The whole walk happens on one kernel lane: unrank once, then each hop
  // is a single dispatched shuffle (identity-padded tables make the
  // full-width shuffle exact) followed by a Myrvold–Ruskey rank of the
  // lane.  Descriptors outside the compiled table — never a generator of
  // the spec — drop to the scalar Permutation path for that hop.
  const int k = net_->k();
  const int stride = k <= 16 ? 16 : kPermLaneBytes;
  alignas(kPermLaneBytes) std::uint8_t lane[kPermLaneBytes];
  perm_kernels::unrank_lane(k, src_rank, lane);
  *out++ = static_cast<std::uint32_t>(src_rank);
  for (const Generator& g : word) {
    const int key = gen_key(g);
    const std::int16_t gi =
        key < 0 ? std::int16_t{-1} : gen_index_[static_cast<std::size_t>(key)];
    if (gi < 0) {
      std::uint8_t sym[kMaxSymbols];
      for (int p = 0; p < k; ++p) sym[p] = static_cast<std::uint8_t>(lane[p] + 1);
      Permutation u = Permutation::from_symbols(
          std::span<const std::uint8_t>(sym, static_cast<std::size_t>(k)));
      g.apply(u);
      for (int p = 0; p < k; ++p) lane[p] = static_cast<std::uint8_t>(u[p] - 1);
    } else {
      perm_kernels::apply_table_lane(
          lane, lanes_[static_cast<std::size_t>(gi)], stride);
    }
    *out++ = static_cast<std::uint32_t>(perm_kernels::rank_lane(lane, k));
  }
}

RouteCacheStats RouteEngine::cache_stats() const {
  RouteCacheStats stats;
  if (shards_ == nullptr) return stats;
  for (std::size_t s = 0; s < kCacheShards; ++s) {
    MutexLock lk(shards_[s].mu);
    stats.hits += shards_[s].hits;
    stats.misses += shards_[s].misses;
    stats.evictions += shards_[s].evictions;
    stats.entries += shards_[s].map.size();
  }
  return stats;
}

}  // namespace scg
