#pragma once
// Round plumbing the pairwise and multiway merge sorts share: the host-side
// fan-out of a round's thread blocks, the block-sort base case, and the
// bookkeeping that turns a round's counters into a SortReport entry.
//
// A round launches one thread block per bE-element output tile, and each
// block owns its shared memory, so the tiles of a round are independent
// (Merge Path partitioning fixes every tile's inputs before any block
// runs).  BlockFanOut simulates them on up to W host threads, each worker
// with its own SharedMemory and block-kernel scratch, so a warm block
// allocates nothing.  Every block writes its KernelStats into its
// own slot and the slots are summed in block order; all counters are
// integer sums or maxima, so a SortReport is bit-identical for any W.

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "gpusim/cost_model.hpp"
#include "gpusim/shared_memory.hpp"
#include "gpusim/stats.hpp"
#include "sort/block_merge.hpp"
#include "sort/report.hpp"

namespace wcm::sort {

/// Alignment of per-worker state: workers write their own shared-memory
/// counters and lane buffers on every simulated step, so no two workers'
/// state may share a cache line (or the adjacent-line prefetch pair).
inline constexpr std::size_t kWorkerAlign = 128;

/// What one fan-out worker owns: its index (for engine-specific per-worker
/// state), its shared memory and its block kernels' scratch.
struct alignas(kWorkerAlign) BlockWorker {
  u32 index = 0;
  gpusim::SharedMemory shm;
  BlockScratch scratch;
};

class BlockFanOut {
 public:
  /// One block: its index in the round, the worker running it (shared
  /// memory statistics already reset) and the stats the block adds its
  /// counters to.
  using Body = std::function<void(std::size_t block, BlockWorker& worker,
                                  gpusim::KernelStats& stats)>;

  /// Workers for rounds of at most `max_blocks` blocks: parallel_width()
  /// of them (util/parallel.hpp), or exactly one when cfg.trace_sink is
  /// set, because a trace must keep the serial step order.  The sink is
  /// attached to that worker's shared memory.
  BlockFanOut(const SortConfig& cfg, std::size_t max_blocks);

  [[nodiscard]] u32 width() const noexcept {
    return static_cast<u32>(workers_.size());
  }

  /// Simulate blocks 0..count-1.  Returns their stats summed in block
  /// order, each block's `shared` being its own shared-memory totals.
  [[nodiscard]] gpusim::KernelStats run(std::size_t count, const Body& body);

 private:
  std::vector<BlockWorker> workers_;
  std::vector<gpusim::KernelStats> slots_;  // one per block of a round
};

/// Price one finished round and append it to `report`: modeled time,
/// `sim.round.*` telemetry under `engine`, and the report's totals.
void append_round(SortReport& report, const char* engine, std::string name,
                  const gpusim::KernelStats& stats,
                  const gpusim::LaunchConfig& launch,
                  const gpusim::Calibration& cal);

/// The base case of both merge sorts: every block sorts its own bE-element
/// tile of `data` in place; appends the "block-sort" round.
void block_sort_round(std::span<word> data, BlockFanOut& fan_out,
                      const char* engine, const gpusim::LaunchConfig& launch,
                      const gpusim::Calibration& cal, SortReport& report);

}  // namespace wcm::sort
