#pragma once
// The base case of the GPU pairwise merge sort (paper Sec. II-A): each
// thread block sorts an independent tile of bE consecutive elements in
// shared memory — every thread first sorts E keys in registers with the
// odd-even network, then the block performs log2(b) intra-block pairwise
// merge rounds, where round i merges b/2^i pairs of lists of size 2^(i-1)E
// with 2^i threads per pair via merge path.

#include <span>

#include "gpusim/shared_memory.hpp"
#include "gpusim/stats.hpp"
#include "sort/block_merge.hpp"
#include "sort/config.hpp"

namespace wcm::sort {

using dmm::word;

/// Simulate one thread block sorting `tile` (size must equal cfg.tile()) in
/// place.  `shm` must have cfg.tile() words and warp size cfg.w; its stats
/// are *not* reset (deltas are folded into `stats`).  Counts the coalesced
/// global load/store of the tile, all shared traffic, and the register
/// network's compare-exchanges.  Works in `scratch` (a warm one makes the
/// block allocation-free).
void simulate_block_sort(gpusim::SharedMemory& shm, std::span<word> tile,
                         const SortConfig& cfg, gpusim::KernelStats& stats,
                         BlockScratch& scratch);

}  // namespace wcm::sort
