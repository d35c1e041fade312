// Tests for the unmerge machinery: the attack mask of one thread block.
// The generator's use of it (tiling, splitting, neutral levels) is tested
// in test_core_generator.cpp.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/unmerge.hpp"
#include "core/warp_construction.hpp"
#include "util/check.hpp"

namespace wcm::core {
namespace {

sort::SortConfig cfg_small() { return sort::SortConfig{5, 64, 32}; }

TEST(AttackBlockMask, HalfTrueAndWellFormed) {
  const auto cfg = cfg_small();
  const auto l = worst_case_warp(cfg.w, cfg.E, WarpSide::L);
  const auto r = worst_case_warp(cfg.w, cfg.E, WarpSide::R);
  const auto mask = attack_block_mask(cfg, l, r);
  EXPECT_EQ(mask.size(), cfg.tile());
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(mask.begin(), mask.end(), true)),
            cfg.tile() / 2);
}

TEST(AttackBlockMask, PerThreadRunsAreContiguous) {
  // Every thread scans one list then the other, so within each E-rank
  // window the true entries form one contiguous run (possibly empty).
  const auto cfg = cfg_small();
  const auto l = worst_case_warp(cfg.w, cfg.E, WarpSide::L);
  const auto r = worst_case_warp(cfg.w, cfg.E, WarpSide::R);
  const auto mask = attack_block_mask(cfg, l, r);
  for (std::size_t t = 0; t < cfg.b; ++t) {
    const std::size_t base = t * cfg.E;
    u32 transitions = 0;
    for (u32 k = 1; k < cfg.E; ++k) {
      transitions += mask[base + k] != mask[base + k - 1] ? 1u : 0u;
    }
    EXPECT_LE(transitions, 1u) << "thread " << t;
  }
}

TEST(AttackBlockMask, WarpPrefixesAreWarpAligned) {
  // The construction requires every warp's A segment to start at bank 0,
  // i.e. the cumulative from-A count at each warp boundary is a multiple
  // of w.
  const auto cfg = cfg_small();
  const auto l = worst_case_warp(cfg.w, cfg.E, WarpSide::L);
  const auto r = worst_case_warp(cfg.w, cfg.E, WarpSide::R);
  const auto mask = attack_block_mask(cfg, l, r);
  const std::size_t warp_span = static_cast<std::size_t>(cfg.w) * cfg.E;
  std::size_t from_a = 0;
  for (std::size_t rank = 0; rank < mask.size(); ++rank) {
    if (rank % warp_span == 0) {
      EXPECT_EQ(from_a % cfg.w, 0u) << "warp boundary at rank " << rank;
    }
    from_a += mask[rank] ? 1u : 0u;
  }
}

TEST(AttackBlockMask, RejectsAsymmetricLR) {
  const auto cfg = cfg_small();
  const auto l = worst_case_warp(cfg.w, cfg.E, WarpSide::L);
  EXPECT_THROW((void)attack_block_mask(cfg, l, l), contract_error);
}

TEST(AttackMasks, LargeERegimeAlsoWellFormed) {
  const sort::SortConfig cfg{17, 256, 32};
  const auto l = worst_case_warp(cfg.w, cfg.E, WarpSide::L);
  const auto r = worst_case_warp(cfg.w, cfg.E, WarpSide::R);
  const auto mask = attack_block_mask(cfg, l, r);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(mask.begin(), mask.end(), true)),
            cfg.tile() / 2);
}

}  // namespace
}  // namespace wcm::core
