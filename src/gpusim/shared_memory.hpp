#pragma once
// Banked shared memory for one simulated thread block: a thin, warp-oriented
// wrapper over the formal DMM machine.  Every warp-wide access is one
// synchronous DMM step; inactive lanes simply do not submit a request.
// Conflict statistics accumulate in the underlying dmm::Machine and are
// read out per kernel by the sort engine.

#include <optional>
#include <span>
#include <vector>

#include "dmm/machine.hpp"
#include "gpusim/layout.hpp"
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
  /// `words` counts *logical* words; with pad > 0 the backing store is
  /// correspondingly larger.  All addresses in the public API are logical;
  /// bank-conflict accounting uses the physical (padded) addresses.
  SharedMemory(u32 warp_size, std::size_t words, u32 pad = 0);

  /// Full layout control (padding and/or a per-row bank permutation, see
  /// gpusim/layout.hpp); the layout's w is the warp size.
  SharedMemory(const SharedLayout& layout, std::size_t words);

  [[nodiscard]] u32 warp_size() const noexcept { return warp_size_; }
  [[nodiscard]] std::size_t words() const noexcept { return logical_words_; }
  [[nodiscard]] const SharedLayout& layout() const noexcept { return layout_; }

  /// One warp-wide load; returns the value read by each request, in request
  /// order.  Lanes must be distinct.  Accounted as one DMM step.  The span
  /// views a buffer this memory reuses: it stays valid until the next
  /// warp_read or warp_write on this memory.
  std::span<const word> warp_read(std::span<const LaneRead> reads);

  /// One warp-wide store.  Accounted as one DMM step.
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
  /// Recorded as an initialization marker in an attached trace.
  void fill(std::span<const word> values, std::size_t base = 0);
  [[nodiscard]] std::vector<word> dump(std::size_t base,
                                       std::size_t count) const;
  [[nodiscard]] word peek(std::size_t addr) const {
    return machine_.peek(layout_.physical(addr));
  }
  void poke(std::size_t addr, word v) {
    machine_.poke(layout_.physical(addr), v);
  }

  [[nodiscard]] const dmm::MachineStats& stats() const noexcept {
    return machine_.stats();
  }
  void reset_stats() noexcept { machine_.reset_stats(); }
  /// Per-phase stats (dmm::Machine::begin_phase / end_phase).
  [[nodiscard]] dmm::MachineStats begin_phase() noexcept {
    return machine_.begin_phase();
  }
  dmm::MachineStats end_phase(const dmm::MachineStats& before) noexcept {
    return machine_.end_phase(before);
  }

  /// Attach an access-trace recorder (see gpusim/trace.hpp); nullptr
  /// detaches.  The recorder adopts this memory's warp size and word count
  /// and must outlive its attachment.
  void attach_trace(class TraceRecorder* recorder);

 private:
  u32 warp_size_;
  SharedLayout layout_;
  std::size_t logical_words_;
  dmm::Machine machine_;
  class TraceRecorder* recorder_ = nullptr;
  bool atomic_section_ = false;
  std::vector<dmm::Request> scratch_;  // reused request buffer
  std::vector<word> scratch_reads_;
};

}  // namespace wcm::gpusim
