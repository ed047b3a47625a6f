#include "networks/route_engine.hpp"

#include <algorithm>
#include <stdexcept>
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

// Baseline Cayley routers, shared by the word-producing and counting paths
// through one emit callback so the two can never disagree.

/// Bubble-sort graph: sort by adjacent exchanges; exactly inversions(w)
/// moves, which is the graph distance.
template <typename Emit>
void bubble_sort_route(Permutation w, Emit&& emit) {
  const int k = w.size();
  bool changed = true;
  while (changed) {
    changed = false;
    for (int i = 0; i + 1 < k; ++i) {
      if (w[i] > w[i + 1]) {
        const Generator g = exchange(i + 1, i + 2);
        g.apply(w);
        emit(g);
        changed = true;
      }
    }
  }
}

/// Complete transposition network: cycle-by-cycle placement; exactly
/// k - #cycles moves, which is the graph distance.
template <typename Emit>
void transposition_network_route(Permutation w, Emit&& emit) {
  const int k = w.size();
  for (int p = 1; p <= k; ++p) {
    while (w[p - 1] != p) {
      const Generator g = exchange(p, w[p - 1]);
      g.apply(w);
      emit(g);
    }
  }
}

/// Greedy pancake router: bring the largest misplaced element to the front,
/// flip it home; at most 2(k-1) flips.
template <typename Emit>
void pancake_route(Permutation w, Emit&& emit) {
  const int k = w.size();
  for (int target = k; target >= 2; --target) {
    if (w[target - 1] == target) continue;
    const int pos = w.index_of(static_cast<std::uint8_t>(target));
    if (pos != 0) {
      const Generator up = reversal(pos + 1);
      up.apply(w);
      emit(up);
    }
    const Generator down = reversal(target);
    down.apply(w);
    emit(down);
  }
}

/// Recursive macro-star: solve the outer game into `scratch` (kSwap uses a
/// single offset, so `out` is free to lend as the solver's scratch slot),
/// then expand every outer T_i through the expansion table into `out`.
int rms_route_into(const NetworkSpec& net, const Permutation& w,
                   std::vector<Generator>& out, std::vector<Generator>& scratch,
                   const std::vector<std::vector<Generator>>* expand) {
  std::vector<std::vector<Generator>> local;
  if (expand == nullptr) {
    local = rms_expansions(net);
    expand = &local;
  }
  solve_transposition_game_into(w, net.l, net.n, BoxMoveStyle::kSwap, scratch,
                                out);
  out.clear();
  for (const Generator& g : scratch) {
    if (g.kind == GenKind::kTransposition) {
      const std::vector<Generator>& word =
          (*expand)[static_cast<std::size_t>(g.i)];
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

std::vector<std::vector<Generator>> rms_expansions(const NetworkSpec& net) {
  if (net.family != Family::kRecursiveMacroStar) {
    throw std::invalid_argument("rms_expansions: not a recursive macro-star");
  }
  const int inner_k = net.n + 1;
  std::vector<std::vector<Generator>> expand(
      static_cast<std::size_t>(net.n + 2));
  for (int i = 2; i <= net.n + 1; ++i) {
    const Permutation t =
        transposition(i).applied(Permutation::identity(inner_k));
    expand[static_cast<std::size_t>(i)] =
        solve_transposition_game(t, net.l1, net.n1, BoxMoveStyle::kSwap);
  }
  return expand;
}

int route_word_into(const NetworkSpec& net, const Permutation& w,
                    std::vector<Generator>& out,
                    std::vector<Generator>& scratch,
                    const std::vector<std::vector<Generator>>* rms_expand) {
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
      out.clear();
      bubble_sort_route(w, [&out](const Generator& g) { out.push_back(g); });
      return static_cast<int>(out.size());
    case Family::kTranspositionNetwork:
      out.clear();
      transposition_network_route(
          w, [&out](const Generator& g) { out.push_back(g); });
      return static_cast<int>(out.size());
    case Family::kPancake:
      out.clear();
      pancake_route(w, [&out](const Generator& g) { out.push_back(g); });
      return static_cast<int>(out.size());
    case Family::kPartialRotationStar:
      return solve_transposition_game_custom_rotations_into(
          w, net.l, net.n, net.rotations, out, scratch);
    case Family::kPartialRotationIS:
      return solve_insertion_game_custom_rotations_into(
          w, net.l, net.n, net.rotations, out, scratch);
    case Family::kRecursiveMacroStar:
      return rms_route_into(net, w, out, scratch, rms_expand);
  }
  throw std::logic_error("route_word_into: unknown family");
}

int route_word_count(const NetworkSpec& net, const Permutation& w,
                     std::span<const int> rms_expand_len) {
  switch (net.family) {
    case Family::kMacroStar:
    case Family::kStar:
      return count_transposition_game(w, net.l, net.n, BoxMoveStyle::kSwap);
    case Family::kRotationStar:
      return count_transposition_game(w, net.l, net.n,
                                      BoxMoveStyle::kBidirectionalRotation);
    case Family::kCompleteRotationStar:
      return count_transposition_game(w, net.l, net.n,
                                      BoxMoveStyle::kCompleteRotation);
    case Family::kMacroRotator:
    case Family::kMacroIS:
      return count_insertion_game(w, net.l, net.n, BoxMoveStyle::kSwap);
    case Family::kRotationRotator:
      return count_insertion_game(w, net.l, net.n,
                                  BoxMoveStyle::kForwardRotation);
    case Family::kRotationIS:
      return count_insertion_game(w, net.l, net.n,
                                  BoxMoveStyle::kBidirectionalRotation);
    case Family::kCompleteRotationRotator:
    case Family::kCompleteRotationIS:
      return count_insertion_game(w, net.l, net.n,
                                  BoxMoveStyle::kCompleteRotation);
    case Family::kInsertionSelection:
    case Family::kRotator:
      return count_one_box_insertion(w);
    case Family::kBubbleSort: {
      int c = 0;
      bubble_sort_route(w, [&c](const Generator&) { ++c; });
      return c;
    }
    case Family::kTranspositionNetwork: {
      int c = 0;
      transposition_network_route(w, [&c](const Generator&) { ++c; });
      return c;
    }
    case Family::kPancake: {
      int c = 0;
      pancake_route(w, [&c](const Generator&) { ++c; });
      return c;
    }
    case Family::kPartialRotationStar:
      return count_transposition_game_custom_rotations(w, net.l, net.n,
                                                       net.rotations);
    case Family::kPartialRotationIS:
      return count_insertion_game_custom_rotations(w, net.l, net.n,
                                                   net.rotations);
    case Family::kRecursiveMacroStar: {
      if (!rms_expand_len.empty()) {
        return count_transposition_game_weighted(
            w, net.l, net.n, BoxMoveStyle::kSwap, rms_expand_len);
      }
      int lens[kMaxSymbols + 2] = {};
      const int inner_k = net.n + 1;
      for (int i = 2; i <= net.n + 1; ++i) {
        const Permutation t =
            transposition(i).applied(Permutation::identity(inner_k));
        lens[i] = count_transposition_game(t, net.l1, net.n1,
                                           BoxMoveStyle::kSwap);
      }
      return count_transposition_game_weighted(
          w, net.l, net.n, BoxMoveStyle::kSwap,
          std::span<const int>(lens, static_cast<std::size_t>(net.n + 2)));
    }
  }
  throw std::logic_error("route_word_count: unknown family");
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
    : net_(&net), cfg_(cfg), bound_(route_word_bound(net)) {
  const int k = net.k();
  compiled_.reserve(net.generators.size());
  gen_index_.assign(kGenKeySpace, -1);
  for (const Generator& g : net.generators) {
    CompiledGen cg;
    const Permutation pos = g.as_position_permutation(k);
    int prefix = 0;
    for (int p = 0; p < k; ++p) {
      cg.tab[p] = static_cast<std::uint8_t>(pos[p] - 1);
      if (cg.tab[p] != p) prefix = p + 1;
    }
    cg.prefix_len = prefix;
    cg.lane = make_table_lane(cg.tab.data(), k);
    const int key = gen_key(g);
    if (key >= 0) {
      gen_index_[static_cast<std::size_t>(key)] =
          static_cast<std::int16_t>(compiled_.size());
    }
    compiled_.push_back(cg);
  }
  if (net.family == Family::kRecursiveMacroStar) {
    rms_expand_ = rms_expansions(net);
    rms_expand_len_.reserve(rms_expand_.size());
    for (const std::vector<Generator>& word : rms_expand_) {
      rms_expand_len_.push_back(static_cast<int>(word.size()));
    }
  }
  if (cfg_.cache_capacity > 0) {
    std::size_t pow2 = 1;
    while (pow2 < static_cast<std::size_t>(std::max(1, cfg_.cache_shards))) {
      pow2 <<= 1;
    }
    shard_mask_ = pow2 - 1;
    per_shard_capacity_ = std::max<std::size_t>(1, cfg_.cache_capacity / pow2);
    shards_ = std::make_unique<CacheShard[]>(pow2);
  }
}

RouteEngine::~RouteEngine() = default;

std::size_t RouteEngine::cache_shard_of(std::uint64_t rel_rank) const {
  return shards_ ? static_cast<std::size_t>(shard_for(rel_rank) -
                                            shards_.get())
                 : 0;
}

RouteEngine::CacheShard* RouteEngine::shard_for(std::uint64_t key) const {
  const std::uint64_t h = key * 0x9e3779b97f4a7c15ULL;
  return &shards_[(h >> 32) & shard_mask_];
}

int RouteEngine::solve_rel(const Permutation& w, std::vector<Generator>& out,
                           std::vector<Generator>& scratch) const {
  return route_word_into(*net_, w, out, scratch,
                         rms_expand_.empty() ? nullptr : &rms_expand_);
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
    solve_rel(w, buf.word, buf.scratch);
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
  solve_rel(w, buf.word, buf.scratch);
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
  if (shards_ != nullptr) {
    const std::uint64_t key = w.rank();
    CacheShard& sh = *shard_for(key);
    MutexLock lk(sh.mu);
    const auto it = sh.map.find(key);
    if (it != sh.map.end()) {
      sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
      ++sh.hits;
      return static_cast<int>(it->second->second.size());
    }
    ++sh.misses;
  }
  return route_word_count(*net_, w, rms_expand_len_);
}

int RouteEngine::route_length(const Permutation& from,
                              const Permutation& to) const {
  if (from.size() != net_->k() || to.size() != net_->k()) {
    throw std::invalid_argument("route_length: permutation size != k");
  }
  return route_length_rel(from.relabel_symbols(to.inverse()));
}

RouteBuffer& RouteEngine::scratch() const {
  thread_local std::unordered_map<const RouteEngine*,
                                  std::unique_ptr<RouteBuffer>>
      buffers;
  std::unique_ptr<RouteBuffer>& slot = buffers[this];
  if (!slot) slot = std::make_unique<RouteBuffer>();
  slot->reserve(static_cast<std::size_t>(bound_));
  return *slot;
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
          lane, compiled_[static_cast<std::size_t>(gi)].lane, stride);
    }
    *out++ = static_cast<std::uint32_t>(perm_kernels::rank_lane(lane, k));
  }
}

RouteCacheStats RouteEngine::cache_stats() const {
  RouteCacheStats stats;
  if (shards_ == nullptr) return stats;
  for (std::size_t s = 0; s <= shard_mask_; ++s) {
    MutexLock lk(shards_[s].mu);
    stats.hits += shards_[s].hits;
    stats.misses += shards_[s].misses;
    stats.evictions += shards_[s].evictions;
    stats.entries += shards_[s].map.size();
  }
  return stats;
}

void RouteEngine::clear_cache() {
  if (shards_ == nullptr) return;
  for (std::size_t s = 0; s <= shard_mask_; ++s) {
    MutexLock lk(shards_[s].mu);
    shards_[s].lru.clear();
    shards_[s].map.clear();
    shards_[s].hits = 0;
    shards_[s].misses = 0;
    shards_[s].evictions = 0;
  }
}

}  // namespace scg
