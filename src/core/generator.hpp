#pragma once
// The worst-case input generator — the library's headline entry point.
//
// Construction: the sorted output of the full sort is the identity
// permutation 0..N-1.  Walking the merge tree top-down, every pair-merge of
// the global rounds is "unmerged" with the attack mask (which output rank
// came from which input run), fixing exactly which values land in each run;
// recursion bottoms out at the bE base-case tiles.  Because all keys are
// distinct, the simulated (and any real) pairwise merge sort then
// reproduces the adversarial per-warp access pattern at *every* global
// merge round.
//
// Options cover the paper's Sec. V discussion: the intra-block extension
// (attack the block sort's rounds with >= 2 warps per pair too) and the
// permutation *family* (item 2: elements in the non-aligned banks can be
// permuted freely — seeded shuffling of the base tiles yields many distinct
// worst-case inputs).

#include <vector>

#include "core/unmerge.hpp"
#include "core/warp_construction.hpp"
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
/// sort configuration.  Throws like check_worst_case_shape().
[[nodiscard]] std::vector<dmm::word> worst_case_input(
    std::size_t n, const sort::SortConfig& cfg, const AttackOptions& opts = {});

/// Number of global merge rounds the generator attacks for input size n.
[[nodiscard]] std::size_t attacked_round_count(std::size_t n,
                                               const sort::SortConfig& cfg);

}  // namespace wcm::core
