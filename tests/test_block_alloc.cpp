// Allocation counting over the per-block path of the block fan-out.  This
// binary replaces the global operator new with one that counts the calls
// made on each thread, then runs one pairwise merge round and one
// block-sort round through sort::BlockFanOut.  A worker's first block may
// grow its scratch; every later block it runs must allocate nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <vector>

#include "gpusim/stats.hpp"
#include "sort/blocksort.hpp"
#include "sort/pairwise_sort.hpp"
#include "sort/rounds.hpp"
#include "workload/inputs.hpp"

namespace {

thread_local std::size_t t_allocations = 0;

void* counted(std::size_t size, std::size_t align) {
  ++t_allocations;
  const std::size_t bytes = size == 0 ? 1 : size;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(bytes);
  } else {
    p = std::aligned_alloc(align, (bytes + align - 1) / align * align);
  }
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace wcm::sort {
namespace {

/// Runs `kernel` for every block of a round three times over and returns
/// the allocation count of every block whose worker had already run one.
/// A worker's first block grows its scratch, which shows the counter works.
template <class Kernel>
std::vector<std::size_t> warm_block_allocations(BlockFanOut& fan_out,
                                                std::size_t blocks,
                                                const Kernel& kernel) {
  std::size_t cold = 0;
  std::vector<char> warm(fan_out.width(), 0);
  std::vector<std::size_t> counts;
  std::vector<std::size_t> round(blocks);
  std::vector<char> measured(blocks);
  for (int pass = 0; pass < 3; ++pass) {
    std::fill(measured.begin(), measured.end(), 0);
    (void)fan_out.run(blocks, [&](std::size_t block, BlockWorker& worker,
                                  gpusim::KernelStats& stats) {
      const std::size_t before = t_allocations;
      kernel(block, worker, stats);
      round[block] = t_allocations - before;
      measured[block] = warm[worker.index];
      warm[worker.index] = 1;
    });
    for (std::size_t b = 0; b < blocks; ++b) {
      if (measured[b] != 0) {
        counts.push_back(round[b]);
      } else {
        cold += round[b];
      }
    }
  }
  EXPECT_GT(cold, 0u) << "a cold block should have grown its scratch";
  return counts;
}

TEST(BlockAllocations, WarmPairwiseMergeBlocksAllocateNothing) {
  const SortConfig cfg{5, 64, 32};
  const std::size_t tile = cfg.tile();
  // Two sorted runs of four tiles each: one pair, eight blocks.
  auto data = workload::random_permutation(8 * tile, 3);
  std::sort(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(4 * tile));
  std::sort(data.begin() + static_cast<std::ptrdiff_t>(4 * tile), data.end());
  gpusim::KernelStats partition;
  std::vector<PairTile> tiles;
  partition_pair(data, 0, 4 * tile, 4 * tile, 4 * tile, tile, partition,
                 tiles);
  ASSERT_EQ(tiles.size(), 8u);
  std::vector<word> out(data.size());

  BlockFanOut fan_out(cfg, tiles.size());
  const auto counts = warm_block_allocations(
      fan_out, tiles.size(),
      [&](std::size_t block, BlockWorker& worker, gpusim::KernelStats& stats) {
        simulate_pair_tile(data, tiles[block], out, cfg, worker.shm,
                           worker.scratch, stats);
      });
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  ASSERT_GE(counts.size(), 2 * tiles.size());
  for (const std::size_t c : counts) {
    EXPECT_EQ(c, 0u);
  }
}

TEST(BlockAllocations, WarmBlockSortBlocksAllocateNothing) {
  const SortConfig cfg{7, 128, 32};
  const std::size_t tile = cfg.tile();
  const std::size_t blocks = 8;
  const auto input = workload::random_permutation(blocks * tile, 5);
  std::vector<word> data(input.size());

  BlockFanOut fan_out(cfg, blocks);
  const auto counts = warm_block_allocations(
      fan_out, blocks,
      [&](std::size_t block, BlockWorker& worker, gpusim::KernelStats& stats) {
        const std::span<word> slice =
            std::span<word>(data).subspan(block * tile, tile);
        std::copy_n(input.begin() + static_cast<std::ptrdiff_t>(block * tile),
                    tile, slice.begin());
        simulate_block_sort(worker.shm, slice, cfg, stats, worker.scratch);
      });
  ASSERT_GE(counts.size(), 2 * blocks);
  for (const std::size_t c : counts) {
    EXPECT_EQ(c, 0u);
  }
}

}  // namespace
}  // namespace wcm::sort
