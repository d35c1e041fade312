#include "core/unmerge.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace wcm::core {

std::vector<bool> attack_block_mask(const sort::SortConfig& cfg,
                                    const WarpAssignment& l,
                                    const WarpAssignment& r) {
  cfg.validate();
  l.validate();
  r.validate();
  WCM_EXPECTS(l.w == cfg.w && l.E == cfg.E, "L assignment mismatch");
  WCM_EXPECTS(r.w == cfg.w && r.E == cfg.E, "R assignment mismatch");
  WCM_EXPECTS(l.total_a() == r.total_b() && l.total_b() == r.total_a(),
              "L and R must be symmetric so block halves balance");

  const std::size_t tile = cfg.tile();
  const u32 warps = cfg.warps_per_block();
  WCM_EXPECTS(warps % 2 == 0, "need an even number of warps per block");

  std::vector<bool> mask(tile, false);
  std::size_t rank = 0;
  for (u32 q = 0; q < warps; ++q) {
    const WarpAssignment& wa = q < warps / 2 ? l : r;
    for (u32 t = 0; t < cfg.w; ++t) {
      const ThreadAssign& ta = wa.threads[t];
      // Thread t's ranks [rank, rank + E): its A elements are a contiguous
      // run at the start (a_first) or the end (!a_first) of the range,
      // because the thread scans one whole list then the other.
      const std::size_t a_lo = ta.a_first ? rank : rank + ta.from_b;
      for (u32 k = 0; k < ta.from_a; ++k) {
        mask[a_lo + k] = true;
      }
      rank += cfg.E;
    }
  }
  WCM_ENSURES(rank == tile, "mask must cover the whole tile");

  const auto trues = static_cast<std::size_t>(
      std::count(mask.begin(), mask.end(), true));
  WCM_ENSURES(trues == tile / 2, "block must draw exactly bE/2 from A");
  return mask;
}

}  // namespace wcm::core
