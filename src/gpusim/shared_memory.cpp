#include "gpusim/shared_memory.hpp"

#include <algorithm>

#include "gpusim/trace.hpp"
#include "util/check.hpp"
#include "util/failpoint.hpp"

namespace wcm::gpusim {

SharedMemory::SharedMemory(u32 warp_size, std::size_t words, u32 pad)
    : SharedMemory(SharedLayout{warp_size, pad}, words) {}

SharedMemory::SharedMemory(const SharedLayout& layout, std::size_t words)
    : layout_(layout), mem_(words, word{0}) {
  WCM_CHECK_CONFIG(layout.w >= 1, "warp size must be positive");
  WCM_CHECK_CONFIG(layout.w <= dmm::kMaxLanes,
                   "warp size must be at most 64");
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
    recorder_->on_attach(layout_.w, mem_.size());
  }
}

void SharedMemory::barrier() {
  if (recorder_ != nullptr) {
    recorder_->on_barrier();
  }
}

std::span<const word> SharedMemory::warp_read(
    std::span<const LaneRead> reads) {
  const std::size_t n = reads.size();
  WCM_CHECK_SIM(n <= layout_.w, "more requests than lanes");
  WCM_FAILPOINT("sim.smem.invariant", simulation_error,
                "injected mid-access invariant break");
  if (recorder_ != nullptr) {
    recorder_->on_read(reads, atomic_section_);
  }
  // Left uninitialized on purpose: the loop writes entries [0, n) and the
  // kernel reads no others.
  std::array<u32, dmm::kMaxLanes> lane;
  std::array<std::size_t, dmm::kMaxLanes> addr;
  const SharedLayout layout = layout_;
  for (std::size_t i = 0; i < n; ++i) {
    const LaneRead& r = reads[i];
    WCM_CHECK_SIM(r.lane < layout.w, "lane out of range");
    WCM_CHECK_SIM(r.addr < mem_.size(), "read out of bounds");
    lane[i] = r.lane;
    addr[i] = layout.physical(r.addr);
    read_values_[i] = mem_[r.addr];
  }
  stats_ += dmm::price_lanes({lane.data(), n}, {addr.data(), n},
                             dmm::Op::read, layout.w);
  return {read_values_.data(), n};
}

void SharedMemory::warp_write(std::span<const LaneWrite> writes) {
  const std::size_t n = writes.size();
  WCM_CHECK_SIM(n <= layout_.w, "more requests than lanes");
  if (recorder_ != nullptr) {
    recorder_->on_write(writes, atomic_section_);
  }
  // Uninitialized on purpose, as in warp_read.
  std::array<u32, dmm::kMaxLanes> lane;
  std::array<std::size_t, dmm::kMaxLanes> addr;
  const SharedLayout layout = layout_;
  for (std::size_t i = 0; i < n; ++i) {
    const LaneWrite& w = writes[i];
    WCM_CHECK_SIM(w.lane < layout.w, "lane out of range");
    WCM_CHECK_SIM(w.addr < mem_.size(), "write out of bounds");
    lane[i] = w.lane;
    addr[i] = layout.physical(w.addr);
  }
  // Priced (and CREW-checked) before any value lands.
  stats_ += dmm::price_lanes({lane.data(), n}, {addr.data(), n},
                             dmm::Op::write, layout.w);
  for (const LaneWrite& w : writes) {
    mem_[w.addr] = w.value;
  }
}

void SharedMemory::fill(std::span<const word> values, std::size_t base) {
  WCM_EXPECTS(base + values.size() <= mem_.size(), "fill out of bounds");
  if (recorder_ != nullptr && !values.empty()) {
    recorder_->on_fill(base, values.size());
  }
  std::copy(values.begin(), values.end(),
            mem_.begin() + static_cast<std::ptrdiff_t>(base));
}

std::vector<word> SharedMemory::dump(std::size_t base,
                                     std::size_t count) const {
  const std::span<const word> v = view(base, count);
  return {v.begin(), v.end()};
}

std::span<const word> SharedMemory::view(std::size_t base,
                                         std::size_t count) const {
  WCM_EXPECTS(base + count <= mem_.size(), "dump out of bounds");
  return std::span<const word>(mem_).subspan(base, count);
}

}  // namespace wcm::gpusim
