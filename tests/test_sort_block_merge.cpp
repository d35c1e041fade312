// Direct unit tests for the warp-synchronous block-merge engine (the code
// path the construction attacks): search equivalence with the host merge
// path, merge output equivalence with the host serial merge, accounting
// sub-counter consistency, and contract checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "mergepath/serial_merge.hpp"
#include "sort/block_merge.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace wcm::sort {
namespace {

/// simulate_block_search on a fresh scratch, its co-ranks copied out.
std::vector<mergepath::CoRank> block_search(
    gpusim::SharedMemory& shm, std::span<const ThreadSearchCtx> ctxs,
    gpusim::KernelStats& stats) {
  BlockScratch scratch;
  const auto coranks = simulate_block_search(shm, ctxs, stats, scratch);
  return {coranks.begin(), coranks.end()};
}

/// simulate_block_merge on a fresh scratch, its merged keys copied out.
std::vector<word> block_merge(gpusim::SharedMemory& shm,
                              std::span<const ThreadMergeCtx> ctxs, u32 E,
                              bool write_back, gpusim::KernelStats& stats) {
  BlockScratch scratch;
  const auto regs =
      simulate_block_merge(shm, ctxs, E, write_back, stats, scratch);
  return {regs.begin(), regs.end()};
}

/// Shared memory preloaded with sorted A at [0, na) and sorted B at
/// [na, na+nb).
gpusim::SharedMemory make_shm(const std::vector<word>& a,
                              const std::vector<word>& b) {
  gpusim::SharedMemory shm(32, a.size() + b.size());
  shm.fill(a, 0);
  shm.fill(b, a.size());
  return shm;
}

std::vector<word> sorted_random(std::size_t n, u64 seed, word bound) {
  Xoshiro256 rng(seed);
  std::vector<word> v(n);
  for (auto& x : v) {
    x = static_cast<word>(rng.below(static_cast<u64>(bound)));
  }
  std::sort(v.begin(), v.end());
  return v;
}

TEST(BlockSearch, MatchesHostMergePath) {
  const auto a = sorted_random(160, 1, 300);
  const auto b = sorted_random(160, 2, 300);
  auto shm = make_shm(a, b);
  gpusim::KernelStats stats;

  const u32 E = 5;
  std::vector<ThreadSearchCtx> ctxs(64);
  for (u32 t = 0; t < 64; ++t) {
    ctxs[t] = {0, a.size(), a.size(), a.size() + b.size(),
               static_cast<std::size_t>(t) * E};
  }
  const auto sim = block_search(shm, ctxs, stats);
  for (u32 t = 0; t < 64; ++t) {
    const auto host = mergepath::merge_path(a, b, t * E);
    EXPECT_EQ(sim[t].i, host.split.i) << "t=" << t;
    EXPECT_EQ(sim[t].j, host.split.j) << "t=" << t;
  }
  EXPECT_GT(stats.shared_search.steps, 0u);
  EXPECT_GT(stats.shared_search.requests, 0u);
}

TEST(BlockMerge, OutputMatchesSerialMerge) {
  const auto a = sorted_random(80, 3, 500);
  const auto b = sorted_random(80, 4, 500);
  auto shm = make_shm(a, b);
  gpusim::KernelStats stats;

  const u32 E = 5;
  const u32 threads = 32;
  std::vector<ThreadSearchCtx> sctx(threads);
  for (u32 t = 0; t < threads; ++t) {
    sctx[t] = {0, a.size(), a.size(), a.size() + b.size(),
               static_cast<std::size_t>(t) * E};
  }
  const auto coranks = block_search(shm, sctx, stats);
  std::vector<ThreadMergeCtx> mctx(threads);
  for (u32 t = 0; t < threads; ++t) {
    const bool last = t + 1 == threads;
    mctx[t].a_begin = coranks[t].i;
    mctx[t].a_end = last ? a.size() : coranks[t + 1].i;
    mctx[t].b_begin = a.size() + coranks[t].j;
    mctx[t].b_end = a.size() + (last ? b.size() : coranks[t + 1].j);
    mctx[t].out_begin = static_cast<std::size_t>(t) * E;
  }
  const auto regs = block_merge(shm, mctx, E, /*write_back=*/true,
                                         stats);
  const auto expected = mergepath::serial_merge(a, b);
  EXPECT_EQ(regs, expected);
  EXPECT_EQ(shm.dump(0, expected.size()), expected);
}

TEST(BlockMerge, AccountsOneReadPerElementPerRound) {
  const auto a = sorted_random(80, 5, 100);
  const auto b = sorted_random(80, 6, 100);
  auto shm = make_shm(a, b);
  gpusim::KernelStats stats;
  const u32 E = 5;
  std::vector<ThreadMergeCtx> mctx(32);
  // Trivial partition: thread t owns a[5t..5t+5) merged with nothing... use
  // equal split via host merge path for validity.
  std::vector<ThreadSearchCtx> sctx(32);
  for (u32 t = 0; t < 32; ++t) {
    sctx[t] = {0, a.size(), a.size(), 160, static_cast<std::size_t>(t) * E};
  }
  const auto coranks = block_search(shm, sctx, stats);
  const auto before = stats.shared_merge_reads.requests;
  for (u32 t = 0; t < 32; ++t) {
    const bool last = t + 1 == 32;
    mctx[t] = {coranks[t].i, last ? a.size() : coranks[t + 1].i,
               a.size() + coranks[t].j,
               a.size() + (last ? b.size() : coranks[t + 1].j),
               static_cast<std::size_t>(t) * E};
  }
  (void)block_merge(shm, mctx, E, false, stats);
  EXPECT_EQ(stats.shared_merge_reads.requests - before, 160u);
  EXPECT_EQ(stats.warp_merge_steps, E);  // one warp, E lock-step iterations
}

// The phase subsets report their own worst bank, not the running maximum
// of whatever ran earlier on the same shared memory.
TEST(BlockMerge, PhaseSubsetsReportTheirOwnWorstBank) {
  std::vector<word> keys(32 * 32);
  std::iota(keys.begin(), keys.end(), 0);
  gpusim::SharedMemory shm(32, keys.size());
  shm.fill(keys);
  std::vector<gpusim::LaneRead> one_bank(32);
  for (u32 lane = 0; lane < 32; ++lane) {
    one_bank[lane] = {lane, static_cast<std::size_t>(lane) * 32};
  }
  (void)shm.warp_read(one_bank);  // 32-way conflict before either phase
  gpusim::KernelStats stats;

  // One lane bisects A = [0, 32) against B = [32, 64): one probe a step.
  const std::vector<ThreadSearchCtx> search{{0, 32, 32, 64, 32}};
  (void)block_search(shm, search, stats);
  // 32 lanes each consume one key of [0, 32): conflict-free.
  std::vector<ThreadMergeCtx> merge(32);
  for (u32 t = 0; t < 32; ++t) {
    merge[t] = {t, t + 1u, 32, 32, t};
  }
  (void)block_merge(shm, merge, 1, /*write_back=*/false, stats);

  EXPECT_GT(stats.shared_search.steps, 0u);
  EXPECT_EQ(stats.shared_search.max_bank_degree, 1u);
  EXPECT_EQ(stats.shared_merge_reads.steps, 1u);
  EXPECT_EQ(stats.shared_merge_reads.max_bank_degree, 1u);
  EXPECT_EQ(shm.stats().max_bank_degree, 32u);
  EXPECT_EQ(shm.stats().steps, 2 + stats.shared_search.steps);
}

TEST(BlockMerge, RejectsWrongQuantileSize) {
  gpusim::SharedMemory shm(32, 64);
  gpusim::KernelStats stats;
  std::vector<ThreadMergeCtx> ctxs(1);
  ctxs[0] = {0, 3, 32, 34, 0};  // 5 elements, E = 4
  EXPECT_THROW((void)block_merge(shm, ctxs, 4, false, stats),
               contract_error);
}

TEST(BlockSearch, RejectsBadRanges) {
  gpusim::SharedMemory shm(32, 64);
  gpusim::KernelStats stats;
  std::vector<ThreadSearchCtx> bad(1);
  bad[0] = {0, 100, 0, 0, 0};  // a_end beyond shared memory
  EXPECT_THROW((void)block_search(shm, bad, stats), contract_error);
  bad[0] = {0, 32, 32, 64, 70};  // diagonal beyond both lists
  EXPECT_THROW((void)block_search(shm, bad, stats), contract_error);
}

TEST(BlockMerge, TiesPreferA) {
  // A-priority on equal keys, matching the host serial merge.
  const std::vector<word> a{5, 5, 5, 5, 5};
  const std::vector<word> b{5, 5, 5, 5, 5};
  auto shm = make_shm(a, b);
  gpusim::KernelStats stats;
  std::vector<ThreadMergeCtx> ctxs(2);
  ctxs[0] = {0, 5, 5, 5, 0};    // all of A
  ctxs[1] = {5, 5, 5, 10, 5};   // all of B
  const auto regs = block_merge(shm, ctxs, 5, false, stats);
  EXPECT_EQ(regs, mergepath::serial_merge(a, b));
}

}  // namespace
}  // namespace wcm::sort
