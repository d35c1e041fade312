// Tests for the banked shared memory.  The Machine.* cases pin the
// functional DMM machine's contract, which SharedMemory carries: values
// move, statistics accumulate (and split into phases), bounds and CREW are
// enforced.

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "dmm/access.hpp"
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

TEST(Machine, PeekPokeFillDump) {
  SharedMemory shm(8, 64);
  EXPECT_EQ(shm.warp_size(), 8u);
  EXPECT_EQ(shm.words(), 64u);
  shm.poke(3, 42);
  EXPECT_EQ(shm.peek(3), 42);
  const std::vector<word> vals{1, 2, 3};
  shm.fill(vals, 10);
  EXPECT_EQ(shm.dump(10, 3), vals);
  const std::span<const word> view = shm.view(10, 3);
  EXPECT_EQ(std::vector<word>(view.begin(), view.end()), vals);
  EXPECT_THROW((void)shm.peek(64), contract_error);
  EXPECT_THROW(shm.poke(64, 0), contract_error);
  EXPECT_THROW(shm.fill(vals, 62), contract_error);
  EXPECT_THROW((void)shm.dump(62, 3), contract_error);
  EXPECT_THROW((void)shm.view(62, 3), contract_error);
}

TEST(Machine, StepReadsReturnValuesInRequestOrder) {
  SharedMemory shm(4, 16);
  for (std::size_t a = 0; a < 16; ++a) {
    shm.poke(a, static_cast<word>(a * 10));
  }
  const std::vector<LaneRead> step{{0, 5}, {1, 2}, {2, 9}};
  const std::span<const word> out = shm.warp_read(step);
  EXPECT_EQ(std::vector<word>(out.begin(), out.end()),
            (std::vector<word>{50, 20, 90}));
}

TEST(Machine, StepAppliesWrites) {
  SharedMemory shm(4, 16);
  const std::vector<LaneWrite> step{{0, 1, 11}, {1, 2, 22}};
  shm.warp_write(step);
  EXPECT_EQ(shm.peek(1), 11);
  EXPECT_EQ(shm.peek(2), 22);
}

TEST(Machine, SynchronousSemantics) {
  // One synchronous step may read one address and write another: legal
  // under CREW, priced like any other pair of requests (here both in
  // bank 3: two cycles).  Reading the written address in the same step is
  // a violation.
  const std::vector<dmm::Request> mixed{{0, 3, dmm::Op::write, 99},
                                        {1, 7, dmm::Op::read, 0}};
  EXPECT_EQ(dmm::analyze_step(mixed, 4).serialization, 2u);
  const std::vector<dmm::Request> racy{{0, 3, dmm::Op::write, 99},
                                       {1, 3, dmm::Op::read, 0}};
  EXPECT_THROW((void)dmm::analyze_step(racy, 4), contract_error);
  // Warp steps carry one op: a read step after a write step sees it.
  SharedMemory shm(4, 16);
  shm.poke(3, 7);
  shm.warp_write(std::vector<LaneWrite>{{0, 3, 99}});
  const std::span<const word> out =
      shm.warp_read(std::vector<LaneRead>{{1, 3}});
  EXPECT_EQ(out[0], 99);
}

TEST(Machine, StatsAccumulateAcrossSteps) {
  SharedMemory shm(4, 16);
  const std::vector<LaneRead> conflict{{0, 0}, {1, 4}};
  (void)shm.warp_read(conflict);
  (void)shm.warp_read(conflict);
  EXPECT_EQ(shm.stats().steps, 2u);
  EXPECT_EQ(shm.stats().requests, 4u);
  EXPECT_EQ(shm.stats().serialization_cycles, 4u);
  EXPECT_EQ(shm.stats().replays, 2u);
  EXPECT_EQ(shm.stats().max_bank_degree, 2u);
  shm.reset_stats();
  EXPECT_EQ(shm.stats().steps, 0u);
}

TEST(Machine, PhaseReportsItsOwnStatsAndKeepsTheRunningTotals) {
  SharedMemory shm(4, 16);
  const std::vector<LaneRead> conflict{{0, 0}, {1, 4}};
  const std::vector<LaneRead> free{{0, 0}, {1, 1}};
  (void)shm.warp_read(conflict);

  const dmm::MachineStats before = shm.begin_phase();
  (void)shm.warp_read(free);
  const dmm::MachineStats phase = shm.end_phase(before);
  EXPECT_EQ(phase.steps, 1u);
  EXPECT_EQ(phase.requests, 2u);
  EXPECT_EQ(phase.replays, 0u);
  EXPECT_EQ(phase.max_bank_degree, 1u);  // not the earlier 2-way step's

  EXPECT_EQ(shm.stats().steps, 2u);
  EXPECT_EQ(shm.stats().requests, 4u);
  EXPECT_EQ(shm.stats().replays, 1u);
  EXPECT_EQ(shm.stats().max_bank_degree, 2u);
}

TEST(Machine, RejectsOutOfRangeRequests) {
  SharedMemory shm(4, 16);
  EXPECT_THROW((void)shm.warp_read(std::vector<LaneRead>{{4, 0}}),
               simulation_error);
  EXPECT_THROW((void)shm.warp_read(std::vector<LaneRead>{{0, 16}}),
               simulation_error);
  EXPECT_THROW(shm.warp_write(std::vector<LaneWrite>{{0, 16, 1}}),
               simulation_error);
  EXPECT_THROW(SharedMemory(65, 128), config_error);
  EXPECT_EQ(shm.stats().steps, 0u);  // nothing rejected was accounted
}

TEST(Machine, CrewViolationDoesNotCorruptMemory) {
  SharedMemory shm(4, 16);
  shm.poke(5, 1);
  shm.poke(6, 2);
  const std::vector<LaneWrite> bad{{0, 6, 20}, {1, 5, 2}, {2, 5, 3}};
  EXPECT_THROW(shm.warp_write(bad), contract_error);
  EXPECT_EQ(shm.peek(5), 1);  // the step was rejected before any write
  EXPECT_EQ(shm.peek(6), 2);
  EXPECT_EQ(shm.stats().steps, 0u);
}

}  // namespace
}  // namespace wcm::gpusim
