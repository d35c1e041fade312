#include "gpusim/shared_memory.hpp"

#include "gpusim/trace.hpp"
#include "util/check.hpp"
#include "util/failpoint.hpp"

namespace wcm::gpusim {

SharedMemory::SharedMemory(u32 warp_size, std::size_t words, u32 pad)
    : SharedMemory(SharedLayout{warp_size, pad}, words) {}

SharedMemory::SharedMemory(const SharedLayout& layout, std::size_t words)
    : warp_size_(layout.w),
      layout_(layout),
      logical_words_(words),
      machine_(layout.w, layout_.physical_words(words)) {
  WCM_CHECK_CONFIG(layout.w >= 1, "warp size must be positive");
  // Only the xor permutation needs a power of two: `col ^ (row % w)` is
  // bijective on [0, w) iff w is a power of two, while the linear and
  // rotation layouts are plain mod-w arithmetic for any width (the w = 3
  // describer cross-check runs non-power-of-two warps through here).
  WCM_CHECK_CONFIG(layout.kind != LayoutKind::xor_swizzle || is_pow2(layout.w),
                   "the xor layout needs a power-of-two warp size");
  WCM_FAILPOINT("sim.smem.alloc", simulation_error,
                "injected shared-memory allocation failure");
}

void SharedMemory::attach_trace(TraceRecorder* recorder) {
  recorder_ = recorder;
  if (recorder_ != nullptr) {
    recorder_->on_attach(warp_size_, logical_words_);
  }
}

void SharedMemory::barrier() {
  if (recorder_ != nullptr) {
    recorder_->on_barrier();
  }
}

std::span<const word> SharedMemory::warp_read(
    std::span<const LaneRead> reads) {
  WCM_CHECK_SIM(reads.size() <= warp_size_, "more requests than lanes");
  WCM_FAILPOINT("sim.smem.invariant", simulation_error,
                "injected mid-access invariant break");
  if (recorder_ != nullptr) {
    recorder_->on_read(reads, atomic_section_);
  }
  scratch_.clear();
  for (const LaneRead& r : reads) {
    WCM_CHECK_SIM(r.lane < warp_size_, "lane out of range");
    WCM_CHECK_SIM(r.addr < logical_words_, "read out of bounds");
    scratch_.push_back({r.lane, layout_.physical(r.addr), dmm::Op::read, 0});
  }
  machine_.step(scratch_, &scratch_reads_);
  return scratch_reads_;
}

void SharedMemory::warp_write(std::span<const LaneWrite> writes) {
  WCM_CHECK_SIM(writes.size() <= warp_size_, "more requests than lanes");
  if (recorder_ != nullptr) {
    recorder_->on_write(writes, atomic_section_);
  }
  scratch_.clear();
  for (const LaneWrite& w : writes) {
    WCM_CHECK_SIM(w.lane < warp_size_, "lane out of range");
    WCM_CHECK_SIM(w.addr < logical_words_, "write out of bounds");
    scratch_.push_back(
        {w.lane, layout_.physical(w.addr), dmm::Op::write, w.value});
  }
  machine_.step(scratch_, nullptr);
}

void SharedMemory::fill(std::span<const word> values, std::size_t base) {
  WCM_EXPECTS(base + values.size() <= logical_words_, "fill out of bounds");
  if (recorder_ != nullptr && !values.empty()) {
    recorder_->on_fill(base, values.size());
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    machine_.poke(layout_.physical(base + i), values[i]);
  }
}

std::vector<word> SharedMemory::dump(std::size_t base,
                                     std::size_t count) const {
  WCM_EXPECTS(base + count <= logical_words_, "dump out of bounds");
  std::vector<word> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = machine_.peek(layout_.physical(base + i));
  }
  return out;
}

}  // namespace wcm::gpusim
