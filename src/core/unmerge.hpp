#pragma once
// Inverse merging ("unmerge"): turn warp assignments into a boolean mask
// over a merge round's output ranks that says which list each rank came
// from.  The generator (generator.hpp) applies the masks top-down from the
// sorted array through the merge tree to build the worst-case input
// permutation.

#include <vector>

#include "core/assignment.hpp"
#include "sort/config.hpp"

namespace wcm::core {

/// Per-rank origin mask of one thread block's bE output ranks under the
/// attack: the first b/(2w) warps use the L assignment, the rest the R
/// assignment; within a warp, thread t covers ranks [tE, (t+1)E) and, per
/// its scan order, the A-origin ranks are the first from_a (a_first) or the
/// last from_a (!a_first) of its range.  Exactly bE/2 entries are true
/// (from A).
[[nodiscard]] std::vector<bool> attack_block_mask(const sort::SortConfig& cfg,
                                                  const WarpAssignment& l,
                                                  const WarpAssignment& r);

}  // namespace wcm::core
