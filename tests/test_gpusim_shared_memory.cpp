// Tests for the banked shared memory wrapper.

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "gpusim/shared_memory.hpp"
#include "util/check.hpp"

namespace wcm::gpusim {
namespace {

TEST(SharedMemory, ReadReturnsValues) {
  SharedMemory shm(32, 64);
  for (std::size_t a = 0; a < 64; ++a) {
    shm.poke(a, static_cast<word>(100 + a));
  }
  const std::vector<LaneRead> reads{{0, 5}, {1, 37}, {2, 5}};
  const std::span<const word> vals = shm.warp_read(reads);
  EXPECT_EQ(std::vector<word>(vals.begin(), vals.end()),
            (std::vector<word>{105, 137, 105}));
}

TEST(SharedMemory, ReadSpanValidUntilNextAccess) {
  // warp_read returns a view of a reused buffer, not a copy: the next
  // read overwrites it in place.
  SharedMemory shm(32, 64);
  shm.poke(1, 11);
  shm.poke(2, 22);
  const std::vector<LaneRead> first{{0, 1}};
  const std::vector<LaneRead> second{{0, 2}};
  const std::span<const word> a = shm.warp_read(first);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0], 11);
  const std::span<const word> b = shm.warp_read(second);
  EXPECT_EQ(b.data(), a.data());
  EXPECT_EQ(b[0], 22);
}

TEST(SharedMemory, WriteStores) {
  SharedMemory shm(32, 64);
  const std::vector<LaneWrite> writes{{0, 1, 11}, {1, 2, 22}};
  shm.warp_write(writes);
  EXPECT_EQ(shm.peek(1), 11);
  EXPECT_EQ(shm.peek(2), 22);
}

TEST(SharedMemory, ConflictAccounting) {
  SharedMemory shm(32, 128);
  // Lanes 0 and 1 both hit bank 3 at distinct addresses.
  const std::vector<LaneRead> reads{{0, 3}, {1, 35}};
  shm.warp_read(reads);
  EXPECT_EQ(shm.stats().steps, 1u);
  EXPECT_EQ(shm.stats().serialization_cycles, 2u);
  EXPECT_EQ(shm.stats().replays, 1u);
  shm.reset_stats();
  EXPECT_EQ(shm.stats().steps, 0u);
}

TEST(SharedMemory, InactiveLanesAllowed) {
  SharedMemory shm(32, 64);
  const std::vector<LaneRead> reads{{7, 0}};  // one active lane
  EXPECT_EQ(shm.warp_read(reads).size(), 1u);
}

TEST(SharedMemory, RejectsBadLanes) {
  SharedMemory shm(32, 64);
  const std::vector<LaneRead> reads{{32, 0}};
  EXPECT_THROW((void)shm.warp_read(reads), contract_error);
  std::vector<LaneRead> too_many(33);
  for (u32 i = 0; i < 33; ++i) {
    too_many[i] = {i, i};
  }
  EXPECT_THROW((void)shm.warp_read(too_many), contract_error);
}

TEST(SharedMemory, NonPow2WarpAllowedExceptUnderXor) {
  // Linear and rotation layouts are plain mod-w arithmetic, so any
  // positive warp size works (the w = 3 describer cross-check depends on
  // this); the xor permutation is only bijective for a power of two.
  SharedMemory shm(31, 62);
  shm.poke(33, 7);
  const std::vector<LaneRead> reads{{0, 33}};
  const std::span<const word> vals = shm.warp_read(reads);
  ASSERT_EQ(vals.size(), 1u);
  EXPECT_EQ(vals[0], 7);
  EXPECT_THROW(
      SharedMemory(SharedLayout{31, 0, LayoutKind::xor_swizzle}, 62),
      contract_error);
}

TEST(SharedMemory, FillAndDump) {
  SharedMemory shm(32, 64);
  const std::vector<word> vals{5, 6, 7};
  shm.fill(vals, 8);
  EXPECT_EQ(shm.dump(8, 3), vals);
}

}  // namespace
}  // namespace wcm::gpusim
