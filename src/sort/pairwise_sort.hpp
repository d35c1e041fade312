#pragma once
// The GPU pairwise merge sort (paper Sec. II-A), simulated end to end:
// block sort of bE-element tiles, then ceil(log2(N / bE)) global pairwise
// merge rounds.  In each global round, pairs of sorted runs are merged by
// one thread block per bE output elements: the block finds its quantile via
// mutual binary search in global memory, stages it in shared memory, runs
// one merge-path round (b threads, E elements each — the access pattern the
// worst-case construction attacks), and stores the tile back coalesced.
//
// This models both the Thrust and the Modern GPU implementation; they run
// the same algorithm with different (E, b) tunings and constant factors
// (see MergeSortLibrary).

#include <span>
#include <vector>

#include "gpusim/shared_memory.hpp"
#include "sort/report.hpp"

namespace wcm::sort {

struct BlockScratch;

/// Library flavor: same algorithm, different tuning defaults and
/// calibration constants.
enum class MergeSortLibrary { thrust, mgpu };

[[nodiscard]] const char* to_string(MergeSortLibrary lib) noexcept;

/// Calibration constants for a library (documented in EXPERIMENTS.md).
[[nodiscard]] gpusim::Calibration library_calibration(MergeSortLibrary lib);

/// Simulate the full sort of `input` (size must be a positive multiple of
/// cfg.tile()).  Returns the report; `output`, when non-null, receives the
/// sorted keys.
[[nodiscard]] SortReport pairwise_merge_sort(
    std::span<const word> input, const SortConfig& cfg,
    const gpusim::Device& dev, MergeSortLibrary lib = MergeSortLibrary::thrust,
    std::vector<word>* output = nullptr);

/// Re-derive modeled times for another device / library from an existing
/// report's event counters (the counters are device-independent, so one
/// simulation can be priced for several targets).
[[nodiscard]] SortReport recost(const SortReport& report,
                                const gpusim::Device& dev,
                                MergeSortLibrary lib);

/// Sort an input of arbitrary size: pads to the next multiple of bE with
/// +infinity sentinels (what the real implementations' edge-tile handling
/// amounts to), sorts, and strips the sentinels.  The report's `n` is the
/// padded size; throughput() relative to the padded size.
[[nodiscard]] SortReport pairwise_merge_sort_any(
    std::span<const word> input, const SortConfig& cfg,
    const gpusim::Device& dev, MergeSortLibrary lib = MergeSortLibrary::thrust,
    std::vector<word>* output = nullptr);

/// One thread block of a global merge round: its A and B segments, as
/// absolute positions in the round's input, and the start of its output
/// tile.
struct PairTile {
  std::size_t a = 0;
  std::size_t na = 0;
  std::size_t b = 0;
  std::size_t nb = 0;
  std::size_t out = 0;
};

/// Partitioning stage of one pair of sorted runs (absolute positions
/// `a_base` and `b_base` of `data`): mutual binary search in global memory
/// for every tile boundary (one dependent probe chain per thread block),
/// charged to `stats`.  Appends the pair's blocks to `tiles`.
void partition_pair(std::span<const word> data, std::size_t a_base,
                    std::size_t len_a, std::size_t b_base, std::size_t len_b,
                    std::size_t tile, gpusim::KernelStats& stats,
                    std::vector<PairTile>& tiles);

/// Simulate one thread block of a global merge round: merge its A and B
/// segments of `data` into its output tile of `out`.  `shm` has cfg.tile()
/// words; a warm `scratch` makes the block allocation-free.
void simulate_pair_tile(std::span<const word> data, const PairTile& blk,
                        std::span<word> out, const SortConfig& cfg,
                        gpusim::SharedMemory& shm, BlockScratch& scratch,
                        gpusim::KernelStats& stats);

}  // namespace wcm::sort
