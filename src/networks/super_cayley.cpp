#include "networks/super_cayley.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace scg {
namespace {

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

/// Removes generators whose position permutation duplicates an earlier one
/// (e.g. I_2 and I_2^{-1} in IS-based definitions are the same move).
std::vector<Generator> dedupe(std::vector<Generator> gens, int k) {
  std::vector<Generator> out;
  std::vector<Permutation> seen;
  for (const Generator& g : gens) {
    Permutation p = g.as_position_permutation(k);
    if (std::find(seen.begin(), seen.end(), p) != seen.end()) continue;
    seen.push_back(std::move(p));
    out.push_back(g);
  }
  return out;
}

std::vector<Generator> transpositions_up_to(int top) {
  std::vector<Generator> g;
  for (int i = 2; i <= top; ++i) g.push_back(transposition(i));
  return g;
}

std::vector<Generator> insertions_up_to(int top) {
  std::vector<Generator> g;
  for (int i = 2; i <= top; ++i) g.push_back(insertion(i));
  return g;
}

std::vector<Generator> selections_up_to(int top) {
  std::vector<Generator> g;
  for (int i = 2; i <= top; ++i) g.push_back(selection(i));
  return g;
}

void append(std::vector<Generator>& dst, std::vector<Generator> src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

std::vector<Generator> swaps(int l, int n) {
  std::vector<Generator> g;
  for (int i = 2; i <= l; ++i) g.push_back(swap_boxes(i, n));
  return g;
}

std::vector<Generator> all_rotations(int l, int n) {
  std::vector<Generator> g;
  for (int i = 1; i <= l - 1; ++i) g.push_back(rotation(i, n));
  return g;
}

std::vector<Generator> pm_rotations(int l, int n) {
  std::vector<Generator> g;
  g.push_back(rotation(1, n));
  if (l > 2) g.push_back(rotation(l - 1, n));
  return g;
}

NetworkSpec finish(Family f, int l, int n, bool directed_family,
                   std::vector<Generator> gens, const std::string& param) {
  // k = l*n+1 must fit kMaxSymbols.  Divide instead of multiplying, so no
  // l or n can overflow the test.
  if (l < 1 || n < 1 || n > (kMaxSymbols - 1) / l) {
    throw std::invalid_argument(family_name(f) + param + ": k exceeds " +
                                std::to_string(kMaxSymbols) + " symbols");
  }
  NetworkSpec s;
  s.family = f;
  s.l = l;
  s.n = n;
  s.generators = dedupe(std::move(gens), n * l + 1);
  // A rotator-based family degenerates to an undirected graph when every
  // generator happens to be self-paired (e.g. MR(l,1): I_2 is an
  // involution), so directedness is computed, not declared.
  s.directed =
      directed_family && !is_inverse_closed(s.generators, l, n * l + 1);
  s.name = family_name(f) + param;
  return s;
}

std::string ln(int l, int n) {
  return "(" + std::to_string(l) + "," + std::to_string(n) + ")";
}

}  // namespace

std::string family_name(Family f) {
  switch (f) {
    case Family::kMacroStar: return "MS";
    case Family::kRotationStar: return "RS";
    case Family::kCompleteRotationStar: return "complete-RS";
    case Family::kMacroRotator: return "MR";
    case Family::kRotationRotator: return "RR";
    case Family::kCompleteRotationRotator: return "complete-RR";
    case Family::kInsertionSelection: return "IS";
    case Family::kMacroIS: return "MIS";
    case Family::kRotationIS: return "RIS";
    case Family::kCompleteRotationIS: return "complete-RIS";
    case Family::kStar: return "star";
    case Family::kRotator: return "rotator";
    case Family::kBubbleSort: return "bubble-sort";
    case Family::kTranspositionNetwork: return "transposition";
    case Family::kPancake: return "pancake";
    case Family::kPartialRotationStar: return "partial-RS";
    case Family::kPartialRotationIS: return "partial-RIS";
    case Family::kRecursiveMacroStar: return "recursive-MS";
  }
  return "?";
}

int NetworkSpec::intercluster_degree() const {
  int d = 0;
  for (const Generator& g : generators) {
    if (!is_nucleus(g.kind)) ++d;
  }
  return d;
}

int NetworkSpec::nucleus_degree() const {
  return degree() - intercluster_degree();
}

std::uint64_t NetworkSpec::cluster_size() const { return factorial(n + 1); }

std::uint64_t NetworkSpec::cluster_of(const Permutation& u) const {
  // Encode the trailing k-(n+1) symbols as a mixed-radix number: position j
  // holds one of the symbols not used earlier; a simple polynomial encoding
  // over symbol values is collision-free and cheap.
  std::uint64_t id = 0;
  for (int idx = n + 1; idx < k(); ++idx) {
    id = id * static_cast<std::uint64_t>(k() + 1) + u[idx];
  }
  return id;
}

GameRules NetworkSpec::game() const {
  GameRules rules;
  rules.name = name;
  rules.l = l;
  rules.n = n;
  rules.moves = generators;
  return rules;
}

NetworkSpec make_macro_star(int l, int n) {
  require(l >= 1 && n >= 1, "MS: l >= 1, n >= 1");
  std::vector<Generator> g = transpositions_up_to(n + 1);
  append(g, swaps(l, n));
  return finish(Family::kMacroStar, l, n, false, std::move(g), ln(l, n));
}

NetworkSpec make_rotation_star(int l, int n) {
  require(l >= 2 && n >= 1, "RS: l >= 2, n >= 1");
  std::vector<Generator> g = transpositions_up_to(n + 1);
  append(g, pm_rotations(l, n));
  return finish(Family::kRotationStar, l, n, false, std::move(g), ln(l, n));
}

NetworkSpec make_complete_rotation_star(int l, int n) {
  require(l >= 2 && n >= 1, "complete-RS: l >= 2, n >= 1");
  std::vector<Generator> g = transpositions_up_to(n + 1);
  append(g, all_rotations(l, n));
  return finish(Family::kCompleteRotationStar, l, n, false, std::move(g), ln(l, n));
}

NetworkSpec make_macro_rotator(int l, int n) {
  require(l >= 1 && n >= 1, "MR: l >= 1, n >= 1");
  std::vector<Generator> g = insertions_up_to(n + 1);
  append(g, swaps(l, n));
  return finish(Family::kMacroRotator, l, n, true, std::move(g), ln(l, n));
}

NetworkSpec make_rotation_rotator(int l, int n) {
  require(l >= 2 && n >= 1, "RR: l >= 2, n >= 1");
  std::vector<Generator> g = insertions_up_to(n + 1);
  g.push_back(rotation(1, n));
  return finish(Family::kRotationRotator, l, n, true, std::move(g), ln(l, n));
}

NetworkSpec make_complete_rotation_rotator(int l, int n) {
  require(l >= 2 && n >= 1, "complete-RR: l >= 2, n >= 1");
  std::vector<Generator> g = insertions_up_to(n + 1);
  append(g, all_rotations(l, n));
  return finish(Family::kCompleteRotationRotator, l, n, true, std::move(g), ln(l, n));
}

NetworkSpec make_insertion_selection(int k) {
  require(k >= 2, "IS: k >= 2");
  std::vector<Generator> g = insertions_up_to(k);
  append(g, selections_up_to(k));
  return finish(Family::kInsertionSelection, 1, k - 1, false, std::move(g),
                "(" + std::to_string(k) + ")");
}

NetworkSpec make_macro_is(int l, int n) {
  require(l >= 1 && n >= 1, "MIS: l >= 1, n >= 1");
  std::vector<Generator> g = insertions_up_to(n + 1);
  append(g, selections_up_to(n + 1));
  append(g, swaps(l, n));
  return finish(Family::kMacroIS, l, n, false, std::move(g), ln(l, n));
}

NetworkSpec make_rotation_is(int l, int n) {
  require(l >= 2 && n >= 1, "RIS: l >= 2, n >= 1");
  std::vector<Generator> g = insertions_up_to(n + 1);
  append(g, selections_up_to(n + 1));
  append(g, pm_rotations(l, n));
  return finish(Family::kRotationIS, l, n, false, std::move(g), ln(l, n));
}

NetworkSpec make_complete_rotation_is(int l, int n) {
  require(l >= 2 && n >= 1, "complete-RIS: l >= 2, n >= 1");
  std::vector<Generator> g = insertions_up_to(n + 1);
  append(g, selections_up_to(n + 1));
  append(g, all_rotations(l, n));
  return finish(Family::kCompleteRotationIS, l, n, false, std::move(g), ln(l, n));
}

NetworkSpec make_star_graph(int k) {
  require(k >= 2, "star: k >= 2");
  return finish(Family::kStar, 1, k - 1, false, transpositions_up_to(k),
                "(" + std::to_string(k) + ")");
}

NetworkSpec make_rotator_graph(int k) {
  require(k >= 2, "rotator: k >= 2");
  return finish(Family::kRotator, 1, k - 1, true, insertions_up_to(k),
                "(" + std::to_string(k) + ")");
}

NetworkSpec make_bubble_sort_graph(int k) {
  require(k >= 2, "bubble-sort: k >= 2");
  std::vector<Generator> g;
  for (int i = 1; i < k; ++i) g.push_back(exchange(i, i + 1));
  return finish(Family::kBubbleSort, 1, k - 1, false, std::move(g),
                "(" + std::to_string(k) + ")");
}

NetworkSpec make_transposition_network(int k) {
  require(k >= 2, "transposition: k >= 2");
  std::vector<Generator> g;
  for (int i = 1; i < k; ++i) {
    for (int j = i + 1; j <= k; ++j) g.push_back(exchange(i, j));
  }
  return finish(Family::kTranspositionNetwork, 1, k - 1, false, std::move(g),
                "(" + std::to_string(k) + ")");
}

NetworkSpec make_pancake_graph(int k) {
  require(k >= 2, "pancake: k >= 2");
  std::vector<Generator> g;
  for (int i = 2; i <= k; ++i) g.push_back(reversal(i));
  return finish(Family::kPancake, 1, k - 1, false, std::move(g),
                "(" + std::to_string(k) + ")");
}

NetworkSpec make_partial_rotation_star(int l, int n,
                                       const std::vector<int>& rotations) {
  require(l >= 2 && n >= 1, "partial-RS: l >= 2, n >= 1");
  require(!rotations.empty(), "partial-RS: rotation set must be nonempty");
  std::vector<Generator> g = transpositions_up_to(n + 1);
  std::string tag = "(" + std::to_string(l) + "," + std::to_string(n) + ";R";
  for (const int i : rotations) {
    require(i >= 1 && i < l, "partial-RS: rotation amounts in 1..l-1");
    g.push_back(rotation(i, n));
    tag += std::to_string(i);
  }
  tag += ")";
  NetworkSpec s = finish(Family::kPartialRotationStar, l, n, true, std::move(g), tag);
  s.rotations = rotations;
  return s;
}

NetworkSpec make_partial_rotation_is(int l, int n,
                                     const std::vector<int>& rotations) {
  require(l >= 2 && n >= 1, "partial-RIS: l >= 2, n >= 1");
  require(!rotations.empty(), "partial-RIS: rotation set must be nonempty");
  std::vector<Generator> g = insertions_up_to(n + 1);
  append(g, selections_up_to(n + 1));
  std::string tag = "(" + std::to_string(l) + "," + std::to_string(n) + ";R";
  for (const int i : rotations) {
    require(i >= 1 && i < l, "partial-RIS: rotation amounts in 1..l-1");
    g.push_back(rotation(i, n));
    tag += std::to_string(i);
  }
  tag += ")";
  NetworkSpec s = finish(Family::kPartialRotationIS, l, n, true, std::move(g), tag);
  s.rotations = rotations;
  return s;
}

NetworkSpec make_recursive_macro_star(int l, int l1, int n1) {
  require(l >= 2 && l1 >= 2 && n1 >= 1, "recursive-MS: l >= 2, l1 >= 2, n1 >= 1");
  const int n = l1 * n1;  // nucleus size n+1 = l1*n1 + 1
  std::vector<Generator> g = transpositions_up_to(n1 + 1);  // inner nucleus
  append(g, swaps(l1, n1));                                 // inner swaps
  append(g, swaps(l, n));                                   // outer swaps
  NetworkSpec s = finish(Family::kRecursiveMacroStar, l, n, false, std::move(g),
                         "(" + std::to_string(l) + ";" + std::to_string(l1) +
                             "," + std::to_string(n1) + ")");
  s.l1 = l1;
  s.n1 = n1;
  return s;
}

std::vector<NetworkSpec> all_super_cayley(int l, int n) {
  std::vector<NetworkSpec> nets;
  nets.push_back(make_macro_star(l, n));
  if (l >= 2) {
    nets.push_back(make_rotation_star(l, n));
    nets.push_back(make_complete_rotation_star(l, n));
    nets.push_back(make_rotation_rotator(l, n));
    nets.push_back(make_complete_rotation_rotator(l, n));
    nets.push_back(make_rotation_is(l, n));
    nets.push_back(make_complete_rotation_is(l, n));
  }
  nets.push_back(make_macro_rotator(l, n));
  nets.push_back(make_insertion_selection(n * l + 1));
  nets.push_back(make_macro_is(l, n));
  return nets;
}

}  // namespace scg
