#pragma once
// Warp-synchronous simulation of one block-level merge round — the code
// path the paper's worst-case construction attacks.  Both the block sort's
// intra-block rounds and the global pairwise rounds funnel through here.
//
// Execution model (mirrors the Thrust / Modern GPU CTA merge):
//   1. every thread runs a merge-path binary search in shared memory to
//      find its E-element quantile (two probe loads per iteration, replayed
//      warp-synchronously; lanes that finish early go inactive),
//   2. E lock-step merge iterations; at iteration s each thread loads the
//      element it consumes (its s-th smallest) from shared memory into
//      "registers" — this is the access stream Theorems 3 and 9 are about,
//   3. barrier, then each thread writes its E merged keys back to shared
//      memory at its output ranks (thread-contiguous stores).
//
// Control flow (which element each thread consumes) is decided from the
// true values, so the sort is functional; the accounting replays exactly
// the addresses a real warp would issue.

#include <span>
#include <vector>

#include "gpusim/shared_memory.hpp"
#include "gpusim/stats.hpp"
#include "mergepath/corank.hpp"
#include "util/math.hpp"

namespace wcm::sort {

using dmm::word;

/// One thread's slice of a block-level merge: half-open shared-memory
/// address ranges of its A and B segments plus its output base address.
struct ThreadMergeCtx {
  std::size_t a_begin = 0;
  std::size_t a_end = 0;
  std::size_t b_begin = 0;
  std::size_t b_end = 0;
  std::size_t out_begin = 0;

  [[nodiscard]] std::size_t elements() const noexcept {
    return (a_end - a_begin) + (b_end - b_begin);
  }
};

/// One thread's merge-path search task: find the co-rank of `diag` within
/// the merge of shared ranges [a_begin, a_end) x [b_begin, b_end).
struct ThreadSearchCtx {
  std::size_t a_begin = 0;
  std::size_t a_end = 0;
  std::size_t b_begin = 0;
  std::size_t b_end = 0;
  std::size_t diag = 0;
};

/// Reusable working storage of the block kernels, kept per worker so that
/// a warm block allocates nothing.  search_ctxs and merge_ctxs are the
/// caller's to fill; reads and writes are lane lists that the kernels and
/// their callers all clobber; the rest belongs to the kernels.
struct BlockScratch {
  std::vector<ThreadSearchCtx> search_ctxs;
  std::vector<ThreadMergeCtx> merge_ctxs;
  std::vector<gpusim::LaneRead> reads;
  std::vector<gpusim::LaneWrite> writes;

  /// One thread's bisection interval [lo, hi) in simulate_block_search.
  struct Search {
    std::size_t lo = 0;
    std::size_t hi = 0;
  };
  /// One active lane's probe: its thread, midpoint and A-probe value.
  struct Probe {
    std::size_t thread = 0;
    std::size_t mid = 0;
    word a = 0;
  };
  std::vector<Search> searches;
  std::vector<Probe> probes;
  std::vector<mergepath::CoRank> coranks;
  std::vector<std::size_t> a_cursor;
  std::vector<std::size_t> b_cursor;
  std::vector<word> regs;
};

/// Simulate the merge-path searches of ctxs.size() consecutive threads
/// (grouped in warps of shm.warp_size(); a warp may span several merge
/// pairs, whose probes then share warp steps, as on real hardware).
/// Returns the per-thread co-ranks — a view of `scratch`, valid until its
/// next use — and accounts every probe into `stats` (both `shared` and
/// `shared_search`).  `ctxs` may be scratch.search_ctxs.
std::span<const mergepath::CoRank> simulate_block_search(
    gpusim::SharedMemory& shm, std::span<const ThreadSearchCtx> ctxs,
    gpusim::KernelStats& stats, BlockScratch& scratch);

/// Simulate the lock-step merge of phase 2 plus the write-back of phase 3.
/// Every context must cover exactly E elements.  When `write_back` is true
/// the merged keys are stored to shared at ctx.out_begin + s (s = 0..E-1).
/// `realistic_refills` switches the accounting from the paper's
/// consumed-element model to the initial-heads + per-step refill stream of
/// real kernels (see SortConfig::realistic_refills).
/// Returns the merged keys of all threads concatenated in context order,
/// as a view of `scratch` valid until its next use.  `ctxs` may be
/// scratch.merge_ctxs.
std::span<const word> simulate_block_merge(
    gpusim::SharedMemory& shm, std::span<const ThreadMergeCtx> ctxs, u32 E,
    bool write_back, gpusim::KernelStats& stats, BlockScratch& scratch,
    bool realistic_refills = false);

}  // namespace wcm::sort
