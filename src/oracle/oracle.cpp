#include "oracle/oracle.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "core/check.hpp"
#include "parallel/parallel_for.hpp"

namespace scg {
namespace {

constexpr char kMagic[8] = {'S', 'C', 'G', 'O', 'R', 'C', 'L', '1'};
constexpr std::uint32_t kFormatVersion = 1;

/// Fixed-size on-disk header (little-endian, as written by this process).
/// Everything needed to reject a stale or mismatched table before touching
/// the payload: family + parameters identify the instance, generator_hash
/// pins the exact compiled move set.
struct OracleHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t family;
  std::uint32_t l, n, k;
  std::uint32_t degree;
  std::uint32_t directed;
  std::uint32_t diameter;
  std::uint32_t histogram_len;
  std::uint32_t reserved;  // explicit padding up to the 8-byte fields
  std::uint64_t num_states;
  std::uint64_t reachable;
  std::uint64_t generator_hash;  // byte offset 64 (pinned by oracle_test)
};
static_assert(sizeof(OracleHeader) == 72, "header layout is part of the format");

/// Claims the 2-bit entry of `v` for value `val` iff it is still unvisited
/// (3).  Lock-free; concurrent claims of entries sharing a word retry.
bool claim_entry(std::vector<std::uint64_t>& table, std::uint64_t v,
                 std::uint64_t val) {
  SCG_DCHECK_LT(val, std::uint64_t{3});  // 3 is the unvisited sentinel
  SCG_DCHECK_LT(v >> 5, table.size());
  std::atomic_ref<std::uint64_t> word(table[v >> 5]);
  const int shift = static_cast<int>(v & 31) * 2;
  std::uint64_t cur = word.load(std::memory_order_relaxed);
  while (((cur >> shift) & 3) == 3) {
    const std::uint64_t desired =
        (cur & ~(std::uint64_t{3} << shift)) | (val << shift);
    if (word.compare_exchange_weak(cur, desired, std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

void set_entry(std::vector<std::uint64_t>& table, std::uint64_t v,
               std::uint64_t val) {
  SCG_DCHECK_LT(val, std::uint64_t{3});
  SCG_DCHECK_LT(v >> 5, table.size());
  const int shift = static_cast<int>(v & 31) * 2;
  table[v >> 5] =
      (table[v >> 5] & ~(std::uint64_t{3} << shift)) | (val << shift);
}

}  // namespace

std::uint64_t DistanceOracle::generator_hash(const NetworkSpec& net) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  };
  mix(static_cast<std::uint8_t>(net.k()));
  mix(net.directed ? 1 : 0);
  for (const Generator& g : net.generators) {
    const Permutation pos = g.as_position_permutation(net.k());
    for (int p = 0; p < net.k(); ++p) mix(pos[p]);
  }
  return h;
}

DistanceOracle DistanceOracle::build(const NetworkSpec& net, ThreadPool* pool) {
  if (net.k() > kMaxOracleSymbols) {
    throw std::invalid_argument("DistanceOracle: k = " +
                                std::to_string(net.k()) +
                                " exceeds the in-memory table limit (k <= " +
                                std::to_string(kMaxOracleSymbols) + ")");
  }
  DistanceOracle o;
  o.net_ = &net;
  o.fwd_ = NetworkView::of(net);
  o.num_states_ = net.num_nodes();
  o.identity_rank_ = Permutation::identity(net.k()).rank();

  // Retrograde = distances TO the identity: BFS over the reverse view (for
  // undirected networks the generator set is inverse-closed, so this is the
  // same graph and the same cost).
  const NetworkView rev = NetworkView::reverse_of(net);
  const std::uint64_t n = o.num_states_;
  o.table_.assign((n + 31) / 32, ~std::uint64_t{0});  // all entries = 3
  set_entry(o.table_, o.identity_rank_, 0);

  const std::uint64_t bitmap_words = (n + 63) / 64;
  std::vector<std::uint64_t> frontier(bitmap_words, 0);
  std::vector<std::uint64_t> next(bitmap_words, 0);
  frontier[o.identity_rank_ >> 6] |= std::uint64_t{1}
                                     << (o.identity_rank_ & 63);

  o.histogram_ = {1};
  o.reachable_ = 1;
  int level = 0;
  // 256 bitmap words = 16k states per grain: small instances run inline,
  // big ones split into enough chunks to feed every worker.
  const std::uint64_t grain = 256;
  while (true) {
    ++level;
    const std::uint64_t val = static_cast<std::uint64_t>(level % 3);
    std::atomic<std::uint64_t> found{0};
    parallel_for_chunks(
        bitmap_words,
        [&](std::uint64_t lo, std::uint64_t hi) {
          // Frontier states are gathered into fixed blocks and expanded
          // through the kernel-batched view API (one batch unrank per
          // block); rows keep the per-state neighbor order, so claims
          // and counts are exactly those of the per-state loop.
          constexpr std::size_t kBlock = 128;
          const std::size_t deg = static_cast<std::size_t>(rev.degree());
          std::array<std::uint64_t, kBlock> ranks;
          std::vector<std::uint64_t> nbrs(kBlock * deg);
          std::size_t m = 0;
          std::uint64_t local = 0;
          const auto flush = [&] {
            rev.expand_neighbors_block({ranks.data(), m}, nbrs.data());
            for (std::size_t s = 0; s < m * deg; ++s) {
              const std::uint64_t v = nbrs[s];
              if (claim_entry(o.table_, v, val)) {
                std::atomic_ref<std::uint64_t>(next[v >> 6])
                    .fetch_or(std::uint64_t{1} << (v & 63),
                              std::memory_order_relaxed);
                ++local;
              }
            }
            m = 0;
          };
          for (std::uint64_t w = lo; w < hi; ++w) {
            std::uint64_t bits = frontier[w];
            while (bits != 0) {
              ranks[m++] =
                  w * 64 + static_cast<std::uint64_t>(std::countr_zero(bits));
              bits &= bits - 1;
              if (m == kBlock) flush();
            }
          }
          if (m > 0) flush();
          found.fetch_add(local, std::memory_order_relaxed);
        },
        grain, pool);
    const std::uint64_t count = found.load();
    if (count == 0) break;
    o.histogram_.push_back(count);
    o.reachable_ += count;
    frontier.swap(next);
    std::fill(next.begin(), next.end(), 0);
  }
  // Every claim is unique (the CAS admits each state once), so the BFS can
  // never count more states than exist.
  SCG_CHECK_LE(o.reachable_, n);
  o.finish_stats();
  return o;
}

void DistanceOracle::finish_stats() {
  std::uint64_t sum = 0;
  for (std::size_t d = 0; d < histogram_.size(); ++d) {
    sum += histogram_[d] * static_cast<std::uint64_t>(d);
  }
  average_ = reachable_ > 1
                 ? static_cast<double>(sum) / static_cast<double>(reachable_ - 1)
                 : 0.0;
}

int DistanceOracle::distance_to_identity(std::uint64_t rank) const {
  return descend(rank, nullptr);
}

int DistanceOracle::exact_distance(std::uint64_t u, std::uint64_t v) const {
  if (u == v) return 0;
  return exact_distance(Permutation::unrank(net_->k(), u),
                        Permutation::unrank(net_->k(), v));
}

int DistanceOracle::exact_distance(const Permutation& u,
                                   const Permutation& v) const {
  // d(U, V) = d(V^{-1}∘U, e): left relabeling by V^{-1} is an automorphism
  // taking V to the identity (the same reduction route() uses).
  const Permutation w = u.relabel_symbols(v.inverse());
  return distance_to_identity(w.rank());
}

int DistanceOracle::optimal_next_hop(const Permutation& u,
                                     const Permutation& v) const {
  const Permutation w = u.relabel_symbols(v.inverse());
  if (w.is_identity()) return -1;
  std::vector<int> word;
  if (descend(w.rank(), &word) < 0) {
    throw std::runtime_error("optimal_next_hop: target unreachable");
  }
  return word.front();
}

std::vector<Generator> DistanceOracle::optimal_route(const Permutation& u,
                                                     const Permutation& v) const {
  // Position moves commute with the relabeling, so the word sorting W to the
  // identity replays from U and ends exactly at V.
  const Permutation w = u.relabel_symbols(v.inverse());
  std::vector<int> tags;
  if (descend(w.rank(), &tags) < 0) {
    throw std::runtime_error("optimal_route: target unreachable");
  }
  std::vector<Generator> word;
  word.reserve(tags.size());
  for (const int t : tags) {
    word.push_back(net_->generators[static_cast<std::size_t>(t)]);
  }
  return word;
}

// Iterative-deepening descent.  The true shortest path is always a chain of
// mod-compatible moves, and no compatible walk can be shorter than the true
// distance, so the first depth limit (d0, d0+3, ...) at which the identity
// is reached equals the exact distance and the path found is optimal.  For
// undirected networks the first candidate branch always succeeds (candidate
// == exactly one step closer), so the DFS degenerates to a greedy walk.
bool DistanceOracle::descend_dfs(std::uint64_t rank, int budget,
                                 std::vector<int>* word,
                                 std::vector<std::uint64_t>& path) const {
  if (rank == identity_rank_) return budget == 0;
  if (budget == 0) return false;
  const int want = (residue(rank) + 2) % 3;
  std::array<std::uint64_t, kMaxCompiledDegree> buf;
  const int d = fwd_.expand_neighbors(rank, buf.data());
  for (int j = 0; j < d; ++j) {
    const std::uint64_t v = buf[j];
    if (residue(v) != want) continue;
    // Minimal compatible walks are simple: revisiting a state only pads the
    // walk, so pruning repeats keeps the search complete and finite.
    if (std::find(path.begin(), path.end(), v) != path.end()) continue;
    path.push_back(v);
    if (word != nullptr) word->push_back(j);
    if (descend_dfs(v, budget - 1, word, path)) return true;
    if (word != nullptr) word->pop_back();
    path.pop_back();
  }
  return false;
}

int DistanceOracle::descend(std::uint64_t rank, std::vector<int>* word) const {
  const int m = residue(rank);
  if (m == 3) return -1;  // never reached by the retrograde BFS
  if (rank == identity_rank_) return 0;
  if (!net_->directed) {
    // Undirected fast path: a residue-compatible neighbor is *exactly* one
    // step closer (neighbor distances differ by at most 1, and mod 3 keeps
    // d-1 distinct from both d and d+1), so one greedy walk reaches the
    // identity in exactly d steps — no depth limits, no backtracking.
    if (word != nullptr) word->clear();
    std::array<std::uint64_t, kMaxCompiledDegree> buf;
    std::uint64_t cur = rank;
    int steps = 0;
    while (cur != identity_rank_) {
      const int want = (residue(cur) + 2) % 3;
      const int deg = fwd_.expand_neighbors(cur, buf.data());
      int next = -1;
      for (int j = 0; j < deg; ++j) {
        if (residue(buf[j]) == want) {
          next = j;
          break;
        }
      }
      if (next < 0 || ++steps > diameter()) {
        throw std::logic_error("DistanceOracle: greedy descent stuck");
      }
      if (word != nullptr) word->push_back(next);
      cur = buf[static_cast<std::size_t>(next)];
    }
    return steps;
  }
  std::vector<std::uint64_t> path{rank};
  const int first = m == 0 ? 3 : m;  // smallest positive depth ≡ m (mod 3)
  for (int limit = first; limit <= diameter(); limit += 3) {
    if (word != nullptr) word->clear();
    if (descend_dfs(rank, limit, word, path)) return limit;
    path.resize(1);
  }
  throw std::logic_error("DistanceOracle: descent exceeded the diameter");
}

void DistanceOracle::save(const std::string& path) const {
  OracleHeader h{};
  std::memcpy(h.magic, kMagic, sizeof kMagic);
  h.version = kFormatVersion;
  h.family = static_cast<std::uint32_t>(net_->family);
  h.l = static_cast<std::uint32_t>(net_->l);
  h.n = static_cast<std::uint32_t>(net_->n);
  h.k = static_cast<std::uint32_t>(net_->k());
  h.degree = static_cast<std::uint32_t>(net_->degree());
  h.directed = net_->directed ? 1 : 0;
  h.diameter = static_cast<std::uint32_t>(diameter());
  h.histogram_len = static_cast<std::uint32_t>(histogram_.size());
  h.num_states = num_states_;
  h.reachable = reachable_;
  h.generator_hash = generator_hash(*net_);

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("DistanceOracle::save: cannot open " + path);
  }
  bool ok = std::fwrite(&h, sizeof h, 1, f) == 1;
  ok = ok && std::fwrite(histogram_.data(), sizeof(std::uint64_t),
                         histogram_.size(), f) == histogram_.size();
  ok = ok && std::fwrite(table_.data(), sizeof(std::uint64_t), table_.size(),
                         f) == table_.size();
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) throw std::runtime_error("DistanceOracle::save: write failed: " + path);
}

DistanceOracle DistanceOracle::load(const std::string& path,
                                    const NetworkSpec& net) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("DistanceOracle::load: cannot open " + path);
  }
  const auto fail = [&](const std::string& why) -> std::runtime_error {
    std::fclose(f);
    return std::runtime_error("DistanceOracle::load: " + path + ": " + why);
  };
  OracleHeader h{};
  if (std::fread(&h, sizeof h, 1, f) != 1) throw fail("truncated header");
  if (std::memcmp(h.magic, kMagic, sizeof kMagic) != 0) {
    throw fail("bad magic (not an oracle table)");
  }
  if (h.version != kFormatVersion) {
    throw fail("unsupported format version " + std::to_string(h.version));
  }
  if (h.family != static_cast<std::uint32_t>(net.family) ||
      h.l != static_cast<std::uint32_t>(net.l) ||
      h.n != static_cast<std::uint32_t>(net.n) ||
      h.k != static_cast<std::uint32_t>(net.k()) ||
      h.degree != static_cast<std::uint32_t>(net.degree()) ||
      h.directed != (net.directed ? 1u : 0u) ||
      h.num_states != net.num_nodes()) {
    throw fail("table was built for a different network instance");
  }
  if (h.generator_hash != generator_hash(net)) {
    throw fail("generator hash mismatch (move set changed since save)");
  }
  if (h.histogram_len == 0 || h.histogram_len != h.diameter + 1 ||
      h.reachable > h.num_states) {
    throw fail("inconsistent header");
  }

  DistanceOracle o;
  o.net_ = &net;
  o.fwd_ = NetworkView::of(net);
  o.num_states_ = h.num_states;
  o.reachable_ = h.reachable;
  o.identity_rank_ = Permutation::identity(net.k()).rank();
  o.histogram_.resize(h.histogram_len);
  o.table_.resize((h.num_states + 31) / 32);
  if (std::fread(o.histogram_.data(), sizeof(std::uint64_t),
                 o.histogram_.size(), f) != o.histogram_.size()) {
    throw fail("truncated histogram");
  }
  if (std::fread(o.table_.data(), sizeof(std::uint64_t), o.table_.size(), f) !=
      o.table_.size()) {
    throw fail("truncated table");
  }
  if (std::fgetc(f) != EOF) throw fail("trailing bytes after table");
  std::fclose(f);

  std::uint64_t total = 0;
  for (const std::uint64_t c : o.histogram_) total += c;
  if (total != o.reachable_ || o.residue(o.identity_rank_) != 0) {
    throw std::runtime_error("DistanceOracle::load: " + path +
                             ": corrupt payload");
  }
  o.finish_stats();
  return o;
}

}  // namespace scg
