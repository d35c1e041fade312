// Tests for the simulated block sort (base case): functional correctness
// against std::sort, stats plausibility, and warp-synchronous access
// invariants.

#include <gtest/gtest.h>

#include <algorithm>

#include "gpusim/shared_memory.hpp"
#include "sort/blocksort.hpp"
#include "sort/registers.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workload/inputs.hpp"

namespace wcm::sort {
namespace {

/// simulate_block_sort on a fresh scratch.
void block_sort(gpusim::SharedMemory& shm, std::span<word> tile,
                const SortConfig& cfg, gpusim::KernelStats& stats) {
  BlockScratch scratch;
  simulate_block_sort(shm, tile, cfg, stats, scratch);
}

SortConfig tiny() { return SortConfig{5, 64, 32}; }

TEST(BlockSort, SortsRandomTile) {
  const SortConfig cfg = tiny();
  auto tile = workload::random_permutation(cfg.tile(), 17);
  gpusim::SharedMemory shm(cfg.w, cfg.tile());
  gpusim::KernelStats stats;
  block_sort(shm, tile, cfg, stats);
  EXPECT_TRUE(std::is_sorted(tile.begin(), tile.end()));
  EXPECT_EQ(tile.front(), 0);
  EXPECT_EQ(tile.back(), static_cast<word>(cfg.tile() - 1));
}

TEST(BlockSort, SortsAdversarialPatterns) {
  const SortConfig cfg = tiny();
  gpusim::SharedMemory shm(cfg.w, cfg.tile());
  for (const auto kind :
       {workload::InputKind::sorted, workload::InputKind::reversed,
        workload::InputKind::nearly_sorted}) {
    auto tile = workload::make_input(kind, cfg.tile(), cfg, 3);
    gpusim::KernelStats stats;
    block_sort(shm, tile, cfg, stats);
    EXPECT_TRUE(std::is_sorted(tile.begin(), tile.end()));
  }
}

TEST(BlockSort, StatsAccounting) {
  const SortConfig cfg = tiny();
  auto tile = workload::random_permutation(cfg.tile(), 5);
  gpusim::SharedMemory shm(cfg.w, cfg.tile());
  gpusim::KernelStats stats;
  block_sort(shm, tile, cfg, stats);

  // Coalesced load + store of the tile.
  EXPECT_EQ(stats.global_transactions, 2 * cfg.tile() / cfg.w);
  EXPECT_EQ(stats.global_requests, 2 * cfg.tile());
  // One odd-even network per warp's threads, log2(b) merge rounds.
  EXPECT_EQ(stats.register_compare_steps,
            (cfg.b / cfg.w) * odd_even_comparator_count(cfg.E));
  const u32 rounds = log2_exact(cfg.b);
  EXPECT_EQ(stats.warp_merge_steps,
            static_cast<std::size_t>(rounds) * (cfg.b / cfg.w) * cfg.E);
  // Merge reads: every round, every element is consumed exactly once.
  EXPECT_EQ(stats.shared_merge_reads.requests,
            static_cast<std::size_t>(rounds) * cfg.tile());
  // Searches happened and were accounted separately.
  EXPECT_GT(stats.shared_search.steps, 0u);
  // The sub-counters are subsets of the machine totals recorded by caller;
  // here stats.shared is still zero because the caller adds shm.stats().
  EXPECT_GT(shm.stats().requests, 0u);
}

TEST(BlockSort, DeterministicStats) {
  const SortConfig cfg = tiny();
  const auto input = workload::random_permutation(cfg.tile(), 23);
  gpusim::KernelStats s1, s2;
  {
    auto tile = input;
    gpusim::SharedMemory shm(cfg.w, cfg.tile());
    block_sort(shm, tile, cfg, s1);
  }
  {
    auto tile = input;
    gpusim::SharedMemory shm(cfg.w, cfg.tile());
    block_sort(shm, tile, cfg, s2);
  }
  EXPECT_EQ(s1.shared_merge_reads.serialization_cycles,
            s2.shared_merge_reads.serialization_cycles);
  EXPECT_EQ(s1.shared_search.serialization_cycles,
            s2.shared_search.serialization_cycles);
}

TEST(BlockSort, SortedInputHasFewerMergeConflictsThanRandom) {
  const SortConfig cfg = tiny();
  gpusim::SharedMemory shm(cfg.w, cfg.tile());
  gpusim::KernelStats sorted_stats, random_stats;
  {
    auto tile = workload::sorted_input(cfg.tile());
    block_sort(shm, tile, cfg, sorted_stats);
    shm.reset_stats();
  }
  {
    auto tile = workload::random_permutation(cfg.tile(), 11);
    block_sort(shm, tile, cfg, random_stats);
  }
  EXPECT_LT(sorted_stats.shared_merge_reads.replays,
            random_stats.shared_merge_reads.replays);
}

TEST(BlockSort, ContractChecks) {
  const SortConfig cfg = tiny();
  gpusim::SharedMemory shm(cfg.w, cfg.tile());
  gpusim::KernelStats stats;
  std::vector<word> wrong_size(cfg.tile() - 1);
  EXPECT_THROW(block_sort(shm, wrong_size, cfg, stats),
               contract_error);
  gpusim::SharedMemory small(cfg.w, cfg.tile() - 1);
  std::vector<word> tile(cfg.tile());
  EXPECT_THROW(block_sort(small, tile, cfg, stats), contract_error);
}

TEST(BlockSort, VariousConfigsAllSort) {
  for (const SortConfig cfg :
       {SortConfig{3, 64, 32}, SortConfig{7, 128, 32}, SortConfig{4, 64, 32},
        SortConfig{15, 128, 32}}) {
    auto tile = workload::random_permutation(cfg.tile(), 99);
    gpusim::SharedMemory shm(cfg.w, cfg.tile());
    gpusim::KernelStats stats;
    block_sort(shm, tile, cfg, stats);
    EXPECT_TRUE(std::is_sorted(tile.begin(), tile.end()))
        << cfg.to_string();
  }
}

}  // namespace
}  // namespace wcm::sort
