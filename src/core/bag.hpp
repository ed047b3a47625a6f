// The ball-arrangement game (BAG), Section 2 of the paper.
//
// A game is: k = n*l + 1 balls (symbols 1..k) in l boxes of n balls plus one
// outside ball, and a fixed move set.  Ball 1 is the color-0 outside ball of
// the sorted configuration; ball s >= 2 belongs to box ("has color")
// ceil((s-1)/n).  Solving the game = transforming a start permutation into
// the identity using only permissible moves = routing in the derived
// network (Section 3).
#pragma once

#include <string>
#include <vector>

#include "core/generator.hpp"
#include "core/permutation.hpp"

namespace scg {

/// Color of ball `s` among l boxes of n balls: 0 for ball 1 (the outside
/// ball of the sorted configuration), else the box index 1..l it belongs to.
inline int ball_color(int s, int n) { return s == 1 ? 0 : (s - 2) / n + 1; }

/// 0-based offset of ball `s` within its home box (undefined for s == 1).
inline int ball_offset(int s, int n) { return (s - 2) % n; }

/// First symbol of box `b`'s sorted content: (b-1)n+2.
inline int box_first_symbol(int b, int n) { return (b - 1) * n + 2; }

/// A ball-arrangement game: the box geometry plus the permissible moves.
/// The derived network's nodes are the k! ball configurations and each move
/// is one labelled out-link per node.
struct GameRules {
  std::string name;
  int l = 1;  ///< number of boxes
  int n = 1;  ///< balls per box
  std::vector<Generator> moves;

  int k() const { return n * l + 1; }
  std::uint64_t num_states() const { return factorial(k()); }

  /// True if `g` is one of the permissible moves.
  bool permits(const Generator& g) const;
};

/// A play of a game: the move word and every intermediate configuration.
struct GameTrace {
  Permutation start;
  std::vector<Generator> moves;
  std::vector<Permutation> states;  ///< states[0] == start; size == moves.size()+1

  int steps() const { return static_cast<int>(moves.size()); }
  const Permutation& final_state() const { return states.back(); }

  /// Multi-line human-readable rendering with the outside ball and the box
  /// boundaries drawn (the style of the paper's Figures 1–3).
  std::string render(int l, int n) const;
};

/// Replays `word` from `start`, recording every state.
GameTrace make_trace(const Permutation& start, const std::vector<Generator>& word);

/// Checks that every move of `trace` is permitted by `rules` and that
/// states are consistent; returns an explanation on failure, "" on success.
std::string validate_trace(const GameRules& rules, const GameTrace& trace);

// ---------------------------------------------------------------------------
// Solvers (Section 2 algorithms).  Each returns a move word transforming
// `start` into the identity permutation, using only the moves of the
// corresponding game.  Styles select how boxes are moved.
// ---------------------------------------------------------------------------

/// How the super (box) moves work in a given game/network.
enum class BoxMoveStyle {
  kSwap,                   ///< S_2..S_l            (MS, MR, MIS)
  kCompleteRotation,       ///< R^1..R^{l-1}        (complete-RS/RR/RIS)
  kBidirectionalRotation,  ///< R^1 and R^{l-1}     (RS, RIS)
  kForwardRotation,        ///< R^1 only            (RR)
};

/// Balls-to-Boxes algorithm (Section 2.1): balls moved by transposition,
/// boxes moved per `style`.  For rotation styles all l cyclic box-color
/// designations are tried and the shortest word is returned (the paper's
/// Figure 3 optimisation).
std::vector<Generator> solve_transposition_game(const Permutation& start, int l,
                                                int n, BoxMoveStyle style);

/// Insertion algorithm (Section 2.3): balls moved by insertion, boxes per
/// `style`.  Only insertion nucleus moves are emitted, so the word is valid
/// in the directed MR/RR/complete-RR networks as well as in MIS/RIS.
std::vector<Generator> solve_insertion_game(const Permutation& start, int l,
                                            int n, BoxMoveStyle style);

/// One-box insertion game (the IS network of Definition 3.10; also the
/// rotator-graph sorting procedure).  At most k-1 moves.
std::vector<Generator> solve_one_box_insertion(const Permutation& start);

/// Variants with a *fixed* cyclic box-color designation (box at block b is
/// designated color ((b-1+offset) mod l)+1) instead of trying all offsets.
/// These reproduce the paper's Figures 2 (fixed assignment) vs 3 (a better
/// assignment) and let tests quantify the gain of the offset search.
std::vector<Generator> solve_transposition_game_with_offset(
    const Permutation& start, int l, int n, BoxMoveStyle style, int offset);
std::vector<Generator> solve_insertion_game_with_offset(
    const Permutation& start, int l, int n, BoxMoveStyle style, int offset);

/// Improved macro-star router (ablation, beyond the paper's algorithm):
/// with swap super moves any box-color designation is admissible, so pick
/// one greedily (each physical box keeps the color it mostly holds) and
/// keep the better of that and the canonical identity designation.
std::vector<Generator> solve_transposition_game_greedy_designation(
    const Permutation& start, int l, int n);

// ---------------------------------------------------------------------------
// Zero-allocation kernels (the routing hot path).
//
// The `*_into` functions clear `out` and append the solving word to it; the
// caller owns both vectors and reuses them across calls, so once their
// capacity covers the family's word bound the kernels stop allocating
// entirely (the solver state itself lives in fixed-size stack arrays).
// `scratch` holds the offset-search candidate word (the rotation styles try
// every cyclic color designation and keep the shortest play).  Words are
// identical to the allocating entry points above.  Returns the word length.
// A route's length is measured as this word's size: the play is the route,
// so nothing counts moves separately.
//
// The `custom_rotations` kernels play over an arbitrary allowed rotation set
// A ⊆ {1..l-1} (the partial-rotation networks of Section 3.3.4); repeated
// amounts are ignored.  An amount outside 1..l-1, or an A that does not
// generate Z_l (the boxes cannot be sorted), throws std::invalid_argument.
// Box fetches use the shortest rotation word over A (BFS over Z_l).
// ---------------------------------------------------------------------------

int solve_transposition_game_into(const Permutation& start, int l, int n,
                                  BoxMoveStyle style,
                                  std::vector<Generator>& out,
                                  std::vector<Generator>& scratch);
int solve_insertion_game_into(const Permutation& start, int l, int n,
                              BoxMoveStyle style, std::vector<Generator>& out,
                              std::vector<Generator>& scratch);
int solve_one_box_insertion_into(const Permutation& start,
                                 std::vector<Generator>& out,
                                 std::vector<Generator>& scratch);
int solve_transposition_game_custom_rotations_into(
    const Permutation& start, int l, int n, const std::vector<int>& rotations,
    std::vector<Generator>& out, std::vector<Generator>& scratch);
int solve_insertion_game_custom_rotations_into(
    const Permutation& start, int l, int n, const std::vector<int>& rotations,
    std::vector<Generator>& out, std::vector<Generator>& scratch);

/// Shortest word over an allowed rotation set A ⊆ {1..l-1} realising each
/// cyclic shift s of l boxes: result[s] lists the rotation amounts to apply
/// (BFS over Z_l; result[0] is empty).  Throws if A does not generate Z_l.
std::vector<std::vector<int>> rotation_shift_sequences(
    int l, const std::vector<int>& rotations);

/// Worst number of moves from A needed to realise any cyclic shift (max
/// word length over all shifts).  Throws if A does not generate Z_l.
int rotation_shift_worst(int l, const std::vector<int>& rotations);

/// Worst-case step bound of solve_transposition_game with kSwap boxes
/// (Balls-to-Boxes: Phase 1 <= floor(2.5 n l) + l - 1, Phase 2 <=
/// floor(1.5 (l-1))).
int balls_to_boxes_step_bound(int l, int n);

/// Worst-case step bound of solve_transposition_game with complete
/// rotations (Theorem 4.1): floor(2.5 k) + l - 4 for l >= 2.
int complete_rotation_star_step_bound(int l, int n);

/// Worst-case step bound of solve_insertion_game (documented bound of our
/// implementation; the paper's Theorem 4.3 display is illegible in the
/// available scan).  Each of the <= k-1 dirty balls costs one insertion and
/// at most one box move; parking ball 1 costs <= 2(l-1) extra; box
/// reordering costs the style-dependent final phase.
int insertion_game_step_bound(int l, int n, BoxMoveStyle style);

}  // namespace scg
