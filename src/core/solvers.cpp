// Game solvers for the ball-arrangement game (paper Section 2).
//
// Both solver families share the same box bookkeeping: `boxcolor_[b]` is the
// color designated to the physical box currently at block position b.  Box
// moves permute contents *and* designations together, so "the box of color
// c" is always well defined.  For rotation styles the initial designation is
// a cyclic shift by a chosen offset (the paper's Figure 3 insight: a good
// color assignment shortens the play); the public entry points try every
// offset and keep the shortest word.
//
// Box movement is unified over an *allowed rotation set* A ⊆ {1..l-1}: a
// shift by s places is realised by a shortest word over A (precomputed by
// BFS over Z_l).  The paper's styles are the special cases A = {1..l-1}
// (complete), {1, l-1} (bidirectional), {1} (forward); Section 3.3.4's
// partial-rotation networks use arbitrary generating subsets.
//
// Allocation model: SolverContext keeps every piece of solver state (box
// designations, the Z_l shift table, the BFS scratch) in fixed-size stack
// arrays — l < kMaxSymbols bounds them all — and appends each move to a
// caller-owned vector whose capacity survives across calls.  This is what
// makes the RouteEngine kernels allocation-free in the steady state.  A
// route's length is the size of that word: nothing counts moves separately.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "core/bag.hpp"
#include "core/check.hpp"

namespace scg {
namespace {

/// Rotation amounts of each named style, written into a fixed array.
/// Returns the count.  kSwap uses no rotations (swaps move boxes instead).
int rotations_for_style(BoxMoveStyle style, int l, int* rots) {
  switch (style) {
    case BoxMoveStyle::kSwap:
      return 0;
    case BoxMoveStyle::kCompleteRotation: {
      for (int i = 1; i < l; ++i) rots[i - 1] = i;
      return l - 1;
    }
    case BoxMoveStyle::kBidirectionalRotation:
      rots[0] = 1;
      if (l > 2) {
        rots[1] = l - 1;
        return 2;
      }
      return 1;
    case BoxMoveStyle::kForwardRotation:
      rots[0] = 1;
      return 1;
  }
  return 0;
}

/// One play of a game from `start`: the solver state plus the word, which
/// the context clears and then appends every move to.
class SolverContext {
 public:
  /// `rotations` overrides the style's rotation set (nullptr: the style's).
  SolverContext(const Permutation& start, int l, int n, BoxMoveStyle style,
                const std::vector<int>* rotations, int color_offset,
                std::vector<Generator>& out)
      : u_(start), l_(l), n_(n), k_(start.size()), style_(style), out_(out) {
    check_geometry();
    out_.clear();
    for (int b = 1; b <= l_; ++b) {
      boxcolor_[static_cast<std::size_t>(b)] = (b - 1 + color_offset) % l_ + 1;
    }
    if (style != BoxMoveStyle::kSwap) {
      int rots[kMaxSymbols];
      int nrots = 0;
      if (rotations != nullptr) {
        // A ⊆ {1..l-1}: repeats are dropped (they add no shift), so at most
        // l-1 amounts reach the fixed array.
        bool seen[kMaxSymbols] = {};
        for (const int r : *rotations) {
          if (r < 1 || r >= l_) {
            throw std::invalid_argument("rotation amounts must lie in 1..l-1");
          }
          if (!seen[r]) {
            seen[r] = true;
            rots[nrots++] = r;
          }
        }
      } else {
        nrots = rotations_for_style(style, l, rots);
      }
      build_shift_table(rots, nrots);
    }
  }

  /// Swap-style context with an explicit (arbitrary bijective) designation;
  /// Phase 2 sorts any designation, so this is only legal with kSwap.
  SolverContext(const Permutation& start, int l, int n,
                const std::vector<int>& designation,
                std::vector<Generator>& out)
      : u_(start), l_(l), n_(n), k_(start.size()), style_(BoxMoveStyle::kSwap),
        out_(out) {
    check_geometry();
    out_.clear();
    if (designation.size() != static_cast<std::size_t>(l_) + 1) {
      throw std::invalid_argument("designation must have l+1 entries (1-based)");
    }
    for (int b = 1; b <= l_; ++b) {
      boxcolor_[static_cast<std::size_t>(b)] = designation[static_cast<std::size_t>(b)];
    }
  }

  /// Worst-case cost of bringing any block to the front (for fuses/bounds).
  int max_fetch_cost() const {
    if (style_ == BoxMoveStyle::kSwap) return 1;
    int worst = 0;
    for (int s = 0; s < l_; ++s) {
      worst = std::max(worst, static_cast<int>(shift_len_[static_cast<std::size_t>(s)]));
    }
    return worst;
  }

  // ---- transposition-game solver (Balls-to-Boxes, Section 2.1) ----
  void run_transposition() {
    // Guard against bugs: never exceed a generous multiple of the bound.
    const int fuse = (4 * balls_to_boxes_step_bound(l_, n_) + 4 * k_ + 16) *
                     std::max(1, max_fetch_cost());
    while (emitted() <= fuse) {
      const int s = u_[0];
      if (s == 1) {                       // Case 1.1: outside ball has color 0
        if (all_boxes_clean_t()) break;
        if (box_clean_t(1)) bring_block_to_front(pick_dirty_block_t());
        emit(transposition(pick_dirty_offset_in_front() + 2));
      } else {                            // Case 1.2: outside ball has color c
        const int c = ball_color(s, n_);
        if (boxcolor_[1] != c) bring_block_to_front(block_of_color(c));
        emit(transposition(ball_offset(s, n_) + 2));
      }
    }
    finish_boxes();
  }

  // ---- insertion-game solver (Section 2.3) ----
  void run_insertion() {
    const int fuse =
        (2 * insertion_game_step_bound(l_, n_, BoxMoveStyle::kSwap) + 4 * k_ + 16) *
        std::max(1, max_fetch_cost());
    while (emitted() <= fuse) {
      const int s = u_[0];
      if (s == 1) {
        if (all_boxes_clean_i()) break;
        bring_block_to_front(pick_dirty_block_i());
        // Park ball 1 at the (c+1)-th rightmost position of the dirty box.
        const int c = clean_suffix_len(1);
        emit(insertion(n_ - c + 1));
      } else {
        const int color = ball_color(s, n_);
        if (boxcolor_[1] != color) bring_block_to_front(block_of_color(color));
        // Insert so that the clean suffix stays ascending: exactly the
        // suffix balls greater than s remain to its right.
        int greater = 0;
        const int c = clean_suffix_len(1);
        for (int off = n_ - c; off < n_; ++off) {
          if (ball_at(1, off) > s) ++greater;
        }
        emit(insertion(n_ - greater + 1));
      }
    }
    finish_boxes();
  }

  bool solved() const {
    if (!u_.is_identity()) return false;
    for (int b = 1; b <= l_; ++b) {
      if (boxcolor_[static_cast<std::size_t>(b)] != b) return false;
    }
    return true;
  }

 private:
  /// The start must hold k = n*l+1 balls with n, l >= 1, which bounds l by
  /// kMaxSymbols - 1 and with it every fixed array below.
  void check_geometry() const {
    if (l_ < 1 || n_ < 1 || n_ > (kMaxSymbols - 1) / l_ || k_ != n_ * l_ + 1) {
      throw std::invalid_argument("solver: size mismatch");
    }
  }

  int ball_at(int block, int off) const { return u_[(block - 1) * n_ + 1 + off]; }

  int emitted() const { return static_cast<int>(out_.size()); }

  void emit(Generator g) {
    g.apply(u_);
    out_.push_back(g);
  }

  int block_of_color(int c) const {
    for (int b = 1; b <= l_; ++b) {
      if (boxcolor_[static_cast<std::size_t>(b)] == c) return b;
    }
    SCG_CHECK(false, "block_of_color: color %d not designated", c);
    return 1;
  }

  // ---- box movement ----

  /// BFS over Z_l: shortest word over the allowed rotation amounts realising
  /// each total shift s (contents of block b move to block b+s, cyclically).
  /// Everything lives in fixed arrays: shifts and word lengths are < l.
  void build_shift_table(const int* rotations, int nrots) {
    if (nrots == 0) {
      throw std::invalid_argument("rotation solver needs rotation moves");
    }
    bool have[kMaxSymbols] = {};
    have[0] = true;
    shift_len_[0] = 0;
    int frontier[kMaxSymbols];
    int next[kMaxSymbols];
    int nf = 0;
    int nn = 0;
    frontier[nf++] = 0;
    while (nf > 0) {
      nn = 0;
      for (int fi = 0; fi < nf; ++fi) {
        const int s = frontier[fi];
        for (int ri = 0; ri < nrots; ++ri) {
          const int r = rotations[ri];
          const int t = (s + r) % l_;
          if (have[t]) continue;
          have[t] = true;
          const int slen = shift_len_[static_cast<std::size_t>(s)];
          for (int j = 0; j < slen; ++j) {
            shift_seq_[static_cast<std::size_t>(t)][static_cast<std::size_t>(j)] =
                shift_seq_[static_cast<std::size_t>(s)][static_cast<std::size_t>(j)];
          }
          shift_seq_[static_cast<std::size_t>(t)][static_cast<std::size_t>(slen)] =
              static_cast<std::uint8_t>(r);
          shift_len_[static_cast<std::size_t>(t)] =
              static_cast<std::uint8_t>(slen + 1);
          next[nn++] = t;
        }
      }
      for (int j = 0; j < nn; ++j) frontier[j] = next[j];
      nf = nn;
    }
    for (int s = 1; s < l_; ++s) {
      if (!have[s]) {
        throw std::invalid_argument(
            "rotation set does not generate Z_l: boxes cannot be sorted");
      }
    }
  }

  /// Steps needed to bring block j to the front.
  int bring_cost(int j) const {
    if (j == 1) return 0;
    if (style_ == BoxMoveStyle::kSwap) return 1;
    const int shift = (l_ + 1 - j) % l_;
    return static_cast<int>(shift_len_[static_cast<std::size_t>(shift)]);
  }

  void rotate_boxcolor(int shift) {
    int next[kMaxSymbols + 1];
    for (int b = 1; b <= l_; ++b) {
      next[(b - 1 + shift) % l_ + 1] = boxcolor_[static_cast<std::size_t>(b)];
    }
    for (int b = 1; b <= l_; ++b) boxcolor_[static_cast<std::size_t>(b)] = next[b];
  }

  void apply_shift(int shift) {
    if (shift == 0) return;
    const int slen = shift_len_[static_cast<std::size_t>(shift)];
    for (int j = 0; j < slen; ++j) {
      emit(rotation(shift_seq_[static_cast<std::size_t>(shift)][static_cast<std::size_t>(j)], n_));
    }
    rotate_boxcolor(shift);
  }

  void bring_block_to_front(int j) {
    if (j == 1) return;
    if (style_ == BoxMoveStyle::kSwap) {
      emit(swap_boxes(j, n_));
      std::swap(boxcolor_[1], boxcolor_[static_cast<std::size_t>(j)]);
      return;
    }
    apply_shift((l_ + 1 - j) % l_);
  }

  // ---- transposition-game cleanliness ----

  bool ball_clean_t(int block, int off) const {
    const int s = ball_at(block, off);
    return s != 1 && boxcolor_[static_cast<std::size_t>(block)] == ball_color(s, n_) &&
           off == ball_offset(s, n_);
  }

  bool box_clean_t(int block) const {
    for (int off = 0; off < n_; ++off) {
      if (!ball_clean_t(block, off)) return false;
    }
    return true;
  }

  bool all_boxes_clean_t() const {
    for (int b = 1; b <= l_; ++b) {
      if (!box_clean_t(b)) return false;
    }
    return true;
  }

  int pick_dirty_block_t() const {
    int best = -1;
    int best_cost = std::numeric_limits<int>::max();
    for (int b = 1; b <= l_; ++b) {
      if (box_clean_t(b)) continue;
      const int cost = bring_cost(b);
      if (cost < best_cost) {
        best_cost = cost;
        best = b;
      }
    }
    SCG_CHECK_NE(best, -1);
    return best;
  }

  /// Dirty ball in the front box to pull out when the outside ball is 1.
  /// Prefer a ball that belongs to the front box (it can be re-placed
  /// immediately without a box move), matching the efficient play of [32].
  int pick_dirty_offset_in_front() const {
    int fallback = -1;
    for (int off = 0; off < n_; ++off) {
      if (ball_clean_t(1, off)) continue;
      const int s = ball_at(1, off);
      if (s != 1 && ball_color(s, n_) == boxcolor_[1]) return off;
      if (fallback == -1) fallback = off;
    }
    SCG_CHECK_NE(fallback, -1);
    return fallback;
  }

  // ---- insertion-game cleanliness ----

  /// Length of the clean suffix of `block`: the maximal run of rightmost
  /// balls that all carry the box's designated color and ascend.
  int clean_suffix_len(int block) const {
    const int c = boxcolor_[static_cast<std::size_t>(block)];
    int len = 0;
    int prev = std::numeric_limits<int>::max();
    for (int off = n_ - 1; off >= 0; --off) {
      const int s = ball_at(block, off);
      if (s == 1 || ball_color(s, n_) != c || s >= prev) break;
      prev = s;
      ++len;
    }
    return len;
  }

  bool all_boxes_clean_i() const {
    for (int b = 1; b <= l_; ++b) {
      if (clean_suffix_len(b) != n_) return false;
    }
    return true;
  }

  int pick_dirty_block_i() const {
    int best = -1;
    int best_cost = std::numeric_limits<int>::max();
    for (int b = 1; b <= l_; ++b) {
      if (clean_suffix_len(b) == n_) continue;
      const int cost = bring_cost(b);
      if (cost < best_cost) {
        best_cost = cost;
        best = b;
      }
    }
    SCG_CHECK_NE(best, -1);
    return best;
  }

  // ---- final box-ordering phase (Phase 2 / the closing rotation) ----

  void finish_boxes() {
    if (l_ == 1) return;
    if (style_ == BoxMoveStyle::kSwap) {
      // Star-style sorting of the designation array with swap moves:
      // at most floor(1.5 (l-1)) steps.
      for (;;) {
        bool sorted = true;
        for (int b = 1; b <= l_; ++b) {
          if (boxcolor_[static_cast<std::size_t>(b)] != b) {
            sorted = false;
            break;
          }
        }
        if (sorted) return;
        if (boxcolor_[1] == 1) {
          for (int b = 2; b <= l_; ++b) {
            if (boxcolor_[static_cast<std::size_t>(b)] != b) {
              emit(swap_boxes(b, n_));
              std::swap(boxcolor_[1], boxcolor_[static_cast<std::size_t>(b)]);
              break;
            }
          }
        } else {
          const int home = boxcolor_[1];
          emit(swap_boxes(home, n_));
          std::swap(boxcolor_[1], boxcolor_[static_cast<std::size_t>(home)]);
        }
      }
    }
    // Rotation styles: the designation is a cyclic shift of the identity;
    // the contents of block b (color boxcolor_[b]) must land on block
    // boxcolor_[b], so rotate forward by boxcolor_[1] - 1.
    apply_shift(((boxcolor_[1] - 1) % l_ + l_) % l_);
  }

  Permutation u_;
  const int l_;
  const int n_;
  const int k_;
  const BoxMoveStyle style_;
  std::vector<Generator>& out_;
  // 1-based: designation of the box at block b.  l < kMaxSymbols.
  std::array<int, kMaxSymbols + 1> boxcolor_{};
  // Shortest rotation word per shift s in [0, l): amounts + length.
  std::array<std::array<std::uint8_t, kMaxSymbols>, kMaxSymbols> shift_seq_{};
  std::array<std::uint8_t, kMaxSymbols> shift_len_{};
};

/// Offset search producing the best word: the first candidate goes straight
/// into `out`; later candidates solve into `scratch` and swap in when
/// strictly shorter (first wins ties).
int best_word_over_offsets(const Permutation& start, int l, int n,
                           BoxMoveStyle style, const std::vector<int>* rotations,
                           void (SolverContext::*run)(),
                           std::vector<Generator>& out,
                           std::vector<Generator>& scratch) {
  // Swaps can realise any designation in Phase 2, so the canonical identity
  // designation is used; rotations preserve the cyclic order, so every
  // cyclic offset is a legal designation and we keep the best.
  const int offsets = (style == BoxMoveStyle::kSwap || l == 1) ? 1 : l;
  for (int b = 0; b < offsets; ++b) {
    SolverContext ctx(start, l, n, style, rotations, b, b == 0 ? out : scratch);
    (ctx.*run)();
    if (!ctx.solved()) {
      throw std::logic_error("BAG solver failed to reach the goal state");
    }
    if (b > 0 && scratch.size() < out.size()) out.swap(scratch);
  }
  return static_cast<int>(out.size());
}

}  // namespace

// ---- word-producing entry points (wrappers over the kernels) ----

std::vector<Generator> solve_transposition_game(const Permutation& start, int l,
                                                int n, BoxMoveStyle style) {
  std::vector<Generator> out;
  std::vector<Generator> scratch;
  solve_transposition_game_into(start, l, n, style, out, scratch);
  return out;
}

std::vector<Generator> solve_insertion_game(const Permutation& start, int l,
                                            int n, BoxMoveStyle style) {
  std::vector<Generator> out;
  std::vector<Generator> scratch;
  solve_insertion_game_into(start, l, n, style, out, scratch);
  return out;
}

std::vector<Generator> solve_one_box_insertion(const Permutation& start) {
  return solve_insertion_game(start, 1, start.size() - 1, BoxMoveStyle::kSwap);
}

std::vector<Generator> solve_transposition_game_with_offset(
    const Permutation& start, int l, int n, BoxMoveStyle style, int offset) {
  std::vector<Generator> out;
  SolverContext ctx(start, l, n, style, nullptr, offset, out);
  ctx.run_transposition();
  if (!ctx.solved()) throw std::logic_error("BAG solver failed (fixed offset)");
  return out;
}

std::vector<Generator> solve_insertion_game_with_offset(
    const Permutation& start, int l, int n, BoxMoveStyle style, int offset) {
  std::vector<Generator> out;
  SolverContext ctx(start, l, n, style, nullptr, offset, out);
  ctx.run_insertion();
  if (!ctx.solved()) throw std::logic_error("BAG solver failed (fixed offset)");
  return out;
}

std::vector<Generator> solve_transposition_game_greedy_designation(
    const Permutation& start, int l, int n) {
  // With swap super moves any designation bijection is admissible (Phase 2
  // sorts all of them), so pick one greedily: designate each physical box
  // the color it already holds the most balls of (ties by cheaper Phase 2).
  const int k = n * l + 1;
  if (start.size() != k) throw std::invalid_argument("solver: size mismatch");
  // weight[b][c] = balls of color c in block b (1-based).
  std::vector<std::vector<int>> weight(static_cast<std::size_t>(l) + 1,
                                       std::vector<int>(static_cast<std::size_t>(l) + 1, 0));
  for (int b = 1; b <= l; ++b) {
    for (int off = 0; off < n; ++off) {
      const int s = start[(b - 1) * n + 1 + off];
      const int c = ball_color(s, n);
      if (c >= 1) ++weight[static_cast<std::size_t>(b)][static_cast<std::size_t>(c)];
    }
  }
  std::vector<int> designation(static_cast<std::size_t>(l) + 1, 0);
  std::vector<bool> box_done(static_cast<std::size_t>(l) + 1, false);
  std::vector<bool> color_done(static_cast<std::size_t>(l) + 1, false);
  for (int round = 0; round < l; ++round) {
    int best_b = -1;
    int best_c = -1;
    int best_w = -1;
    for (int b = 1; b <= l; ++b) {
      if (box_done[static_cast<std::size_t>(b)]) continue;
      for (int c = 1; c <= l; ++c) {
        if (color_done[static_cast<std::size_t>(c)]) continue;
        int w = 2 * weight[static_cast<std::size_t>(b)][static_cast<std::size_t>(c)];
        if (b == c) ++w;  // favour the identity designation on ties
        if (w > best_w) {
          best_w = w;
          best_b = b;
          best_c = c;
        }
      }
    }
    designation[static_cast<std::size_t>(best_b)] = best_c;
    box_done[static_cast<std::size_t>(best_b)] = true;
    color_done[static_cast<std::size_t>(best_c)] = true;
  }
  std::vector<Generator> best;
  SolverContext greedy(start, l, n, designation, best);
  greedy.run_transposition();
  if (!greedy.solved()) throw std::logic_error("greedy designation failed");
  // Never worse than the canonical identity designation.
  std::vector<Generator> base =
      solve_transposition_game(start, l, n, BoxMoveStyle::kSwap);
  return base.size() < best.size() ? base : best;
}

// ---- zero-allocation kernels ----

int solve_transposition_game_into(const Permutation& start, int l, int n,
                                  BoxMoveStyle style,
                                  std::vector<Generator>& out,
                                  std::vector<Generator>& scratch) {
  return best_word_over_offsets(start, l, n, style, nullptr,
                                &SolverContext::run_transposition, out, scratch);
}

int solve_insertion_game_into(const Permutation& start, int l, int n,
                              BoxMoveStyle style, std::vector<Generator>& out,
                              std::vector<Generator>& scratch) {
  return best_word_over_offsets(start, l, n, style, nullptr,
                                &SolverContext::run_insertion, out, scratch);
}

int solve_one_box_insertion_into(const Permutation& start,
                                 std::vector<Generator>& out,
                                 std::vector<Generator>& scratch) {
  return solve_insertion_game_into(start, 1, start.size() - 1,
                                   BoxMoveStyle::kSwap, out, scratch);
}

int solve_transposition_game_custom_rotations_into(
    const Permutation& start, int l, int n, const std::vector<int>& rotations,
    std::vector<Generator>& out, std::vector<Generator>& scratch) {
  return best_word_over_offsets(start, l, n, BoxMoveStyle::kCompleteRotation,
                                &rotations, &SolverContext::run_transposition,
                                out, scratch);
}

int solve_insertion_game_custom_rotations_into(
    const Permutation& start, int l, int n, const std::vector<int>& rotations,
    std::vector<Generator>& out, std::vector<Generator>& scratch) {
  return best_word_over_offsets(start, l, n, BoxMoveStyle::kCompleteRotation,
                                &rotations, &SolverContext::run_insertion, out,
                                scratch);
}

}  // namespace scg
