#pragma once
// The worst-case input generator — the library's headline entry point.
//
// Construction: the sorted output of the full sort is the identity
// permutation 0..N-1.  Walking the merge tree top-down, every pair-merge of
// the global rounds is "unmerged" with the attack mask (which output rank
// came from which input run), fixing exactly which values land in each run;
// the walk bottoms out at the bE base-case tiles.  Because all keys are
// distinct, the simulated (and any real) pairwise merge sort then
// reproduces the adversarial per-warp access pattern at *every* global
// merge round.
//
// The walk runs level by level, which is Merge Path run backwards: every
// pair of one level has the same size and the same mask, so a level builds
// its mask once (a bE tile's, tiled, for a global round) and then
// stable-partitions every segment into its A and B halves in one
// branchless pass from one flat n-word buffer into the other; the buffers
// swap roles per level and nothing is allocated per node.  A level the
// attack skips is the neutral split (A the lower half), which leaves the
// buffer as it is.  After the last split the leaves are shuffled left to
// right from one generator, as a depth-first walk would.
//
// Inversions by construction: every segment is sorted before its split, so
// a split's cross inversions are, summed over the elements bound for A,
// the B-bound elements already passed — one add in the partition loop.  A
// pair of positions is counted at its lowest common node, so the output's
// inversions are the splits' counts plus each leaf's own.  A leaf is
// counted by shuffling rank indices with the same draws, gathering the
// values through them and counting the rank permutation against a bitset
// of the ranks placed so far and a count tree over its 64-rank words (a
// few KB for a bE tile).  Only a caller that asks for the count pays for
// it; the others shuffle the values in place.
//
// Options cover the paper's Sec. V discussion: the intra-block extension
// (attack the block sort's rounds with >= 2 warps per pair too) and the
// permutation *family* (item 2: elements in the non-aligned banks can be
// permuted freely — seeded shuffling of the base tiles yields many distinct
// worst-case inputs).

#include <vector>

#include "core/warp_construction.hpp"
#include "dmm/access.hpp"
#include "sort/config.hpp"

namespace wcm::core {

struct AttackOptions {
  /// Attack every global pairwise merge round (the paper's construction).
  bool attack_global_rounds = true;
  /// Extension: also attack intra-block merge rounds whose pairs span at
  /// least two warps (pair size >= 2wE).
  bool attack_intra_block = false;
  /// Nonzero: shuffle each base tile with this seed (the inner order of a
  /// tile is irrelevant to every attacked round — the block sort re-sorts
  /// it — so this produces a family of distinct worst-case permutations).
  u64 tile_shuffle_seed = 0;
  /// Which Lemma 2 alignment strategy builds the small-E warps.  All three
  /// achieve E^2 aligned elements but yield different permutations —
  /// another axis of the worst-case family.  Ignored in the large-E regime.
  AlignmentStrategy small_e_strategy = AlignmentStrategy::front_to_back;
  /// Attack only the *last* `max_attacked_rounds` global merge rounds
  /// (counted from the final round down); earlier rounds get neutral
  /// splits.  Paper Sec. V item 3: relaxing the construction produces many
  /// more permutations with a dialed-down — but still large — number of
  /// conflicts.  Default: attack every global round.
  std::size_t max_attacked_rounds = static_cast<std::size_t>(-1);
};

/// Throws wcm::config_error unless the generator can build an n-key
/// worst case for cfg: n = bE * 2^k with k >= 1, and a co-prime E < w with
/// E >= 3 (the small-E / large-E regimes).
void check_worst_case_shape(std::size_t n, const sort::SortConfig& cfg);

/// Generate the worst-case input permutation of {0, .., n-1} for the given
/// sort configuration.  When `inversions` is non-null it receives the
/// permutation's inversion count (equal to workload::count_inversions of
/// the result), counted during construction.  Throws like
/// check_worst_case_shape().
[[nodiscard]] std::vector<dmm::word> worst_case_input(
    std::size_t n, const sort::SortConfig& cfg, const AttackOptions& opts = {},
    u64* inversions = nullptr);

/// Number of global merge rounds the generator attacks for input size n.
[[nodiscard]] std::size_t attacked_round_count(std::size_t n,
                                               const sort::SortConfig& cfg);

}  // namespace wcm::core
