#pragma once
// Banked shared memory for one simulated thread block.  Every warp-wide
// access is one synchronous DMM step (dmm/access.hpp); inactive lanes
// simply do not submit a request.
//
// Values are stored in logical order: a SharedLayout (gpusim/layout.hpp)
// is injective, so where a word sits physically changes neither the
// values nor the CREW checks, only which bank each access hits.
// warp_read / warp_write therefore map each lane's logical address to its
// physical one straight into the conflict kernel's stack arrays
// (dmm::price_lanes, bitmask fast path included) and gather or scatter
// the values in the same pass: no request vector, no second copy of
// memory, no heap.  Host-side fill / dump / peek / poke are plain array
// accesses.  The memory accumulates its own conflict statistics, read out
// per kernel (and per phase) by the sort engines.

#include <array>
#include <span>
#include <vector>

#include "dmm/access.hpp"
#include "gpusim/layout.hpp"
#include "util/check.hpp"
#include "util/math.hpp"

namespace wcm::gpusim {

using dmm::word;

/// A lane's read request: lane id within the warp and shared address.
struct LaneRead {
  u32 lane = 0;
  std::size_t addr = 0;
};

/// A lane's write request.
struct LaneWrite {
  u32 lane = 0;
  std::size_t addr = 0;
  word value = 0;
};

class SharedMemory {
 public:
  /// `words` counts *logical* words.  All addresses in the public API are
  /// logical; bank-conflict accounting uses the physical (padded)
  /// addresses.  The warp size is at most dmm::kMaxLanes.
  SharedMemory(u32 warp_size, std::size_t words, u32 pad = 0);

  /// Full layout control (padding and/or a per-row bank permutation, see
  /// gpusim/layout.hpp); the layout's w is the warp size.
  SharedMemory(const SharedLayout& layout, std::size_t words);

  [[nodiscard]] u32 warp_size() const noexcept { return layout_.w; }
  [[nodiscard]] std::size_t words() const noexcept { return mem_.size(); }
  [[nodiscard]] const SharedLayout& layout() const noexcept { return layout_; }

  /// One warp-wide load; returns the value read by each request, in request
  /// order.  Lanes must be distinct.  Accounted as one DMM step.  The span
  /// views a buffer this memory reuses: it stays valid until the next
  /// warp_read on this memory.
  std::span<const word> warp_read(std::span<const LaneRead> reads);

  /// One warp-wide store.  Accounted as one DMM step; a CREW violation
  /// throws before any value is stored.
  void warp_write(std::span<const LaneWrite> writes);

  /// Execution barrier (__syncthreads): free at the machine level, but
  /// recorded in an attached trace — the race detector only pairs accesses
  /// within one barrier interval.  Kernels emit one at every sync point,
  /// including block boundaries when one SharedMemory hosts several
  /// simulated blocks in sequence.
  void barrier();

  /// Bracket a run of warp_read/warp_write steps that model atomic
  /// read-modify-writes (shared histogram updates): recorded steps carry
  /// the atomic tag, which exempts atomic/atomic pairs from race pairing.
  void set_atomic_section(bool on) noexcept { atomic_section_ = on; }

  /// Host-side (unaccounted) access for kernel setup / result extraction.
  /// fill is recorded as an initialization marker in an attached trace.
  void fill(std::span<const word> values, std::size_t base = 0);
  [[nodiscard]] std::vector<word> dump(std::size_t base,
                                       std::size_t count) const;
  /// dump() without the copy: valid until the memory is written again.
  [[nodiscard]] std::span<const word> view(std::size_t base,
                                           std::size_t count) const;
  [[nodiscard]] word peek(std::size_t addr) const {
    WCM_EXPECTS(addr < mem_.size(), "peek out of bounds");
    return mem_[addr];
  }
  void poke(std::size_t addr, word v) {
    WCM_EXPECTS(addr < mem_.size(), "poke out of bounds");
    mem_[addr] = v;
  }

  [[nodiscard]] const dmm::MachineStats& stats() const noexcept {
    return stats_;
  }
  void reset_stats() noexcept { stats_ = {}; }

  /// Begin measuring one phase of steps: returns the running totals and
  /// zeroes them, so stats() counts the phase alone — its own
  /// max_bank_degree included, which no difference of two running
  /// snapshots can give.
  [[nodiscard]] dmm::MachineStats begin_phase() noexcept {
    const dmm::MachineStats before = stats_;
    stats_ = {};
    return before;
  }
  /// End the phase whose begin_phase() returned `before`: returns the
  /// phase's own stats and restores the running totals to before + phase.
  dmm::MachineStats end_phase(const dmm::MachineStats& before) noexcept {
    const dmm::MachineStats phase = stats_;
    stats_ += before;
    return phase;
  }

  /// Attach an access-trace recorder (see gpusim/trace.hpp); nullptr
  /// detaches.  The recorder adopts this memory's warp size and word count
  /// and must outlive its attachment.
  void attach_trace(class TraceRecorder* recorder);

 private:
  SharedLayout layout_;
  std::vector<word> mem_;  // logical order
  dmm::MachineStats stats_;
  class TraceRecorder* recorder_ = nullptr;
  bool atomic_section_ = false;
  std::array<word, dmm::kMaxLanes> read_values_{};  // last warp_read's values
};

}  // namespace wcm::gpusim
