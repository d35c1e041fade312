#pragma once
// Contention analysis of one synchronous DMM step (the distributed memory
// machine of Mehlhorn & Vishkin; paper Sec. II-B): a set of simultaneous
// memory requests, one per processor at most, on w memory banks, address x
// in bank x mod w.  This is where every conflict metric in the repository
// is defined, in one place:
//
//  * serialization        — cycles the step takes: max over banks of the
//                           number of distinct addresses requested in that
//                           bank (a module answers one request per cycle;
//                           same-address reads broadcast, per the paper's
//                           footnote 1).
//  * replays              — serialization - 1 when any request was made;
//                           matches the "extra wavefronts" notion reported
//                           by NVIDIA profilers (l1tex bank-conflict sums).
//  * conflicting_accesses — sum over banks of the number of requests to
//                           banks that needed >= 2 cycles.  This is the
//                           paper's "total bank conflicts" count: Theorem 3
//                           constructs E^2 of these per warp per round.
//
// CREW: concurrent writes to the same address are a model violation and
// throw; concurrent reads are allowed (and broadcast for free).  A
// processor id may appear once per step.
//
// One kernel prices every step.  price_lanes() is its warp entry: the
// caller computes lane ids and physical addresses straight into stack
// arrays (gpusim::SharedMemory, trace replay), nothing is copied and
// nothing touches the heap.  On at most 64 banks it first takes a one-pass
// bitmask test: when no bank is named twice, every request has a bank to
// itself and the step costs one cycle with no chain walk.  Otherwise each
// distinct address joins its bank's chain and one sweep over the touched
// banks yields the cost.  analyze_step() is the general adapter over the
// same kernel, for hand-built steps that mix reads and writes, name
// processor ids of 64 and above or span more than 64 lanes or banks.

#include <cstddef>
#include <cstdint>
#include <span>

namespace wcm::dmm {

/// A machine word: the value a memory cell holds.
using word = std::int64_t;

/// Most requests a warp step carries, and the most banks the bitmask
/// fast path covers: lane and bank sets fit in one 64-bit mask.
inline constexpr std::size_t kMaxLanes = 64;

enum class Op : unsigned char { read, write };

/// One processor's request within a synchronous step.  `value` is the
/// payload of a write and ignored for reads.
struct Request {
  std::size_t proc = 0;
  std::size_t addr = 0;
  Op op = Op::read;
  word value = 0;
};

/// Cost of one synchronous step (see file comment for definitions).
struct StepCost {
  std::size_t requests = 0;
  std::size_t serialization = 0;
  std::size_t replays = 0;
  std::size_t conflicting_accesses = 0;
  std::size_t max_bank_degree = 0;  ///< distinct addresses in the worst bank

  StepCost& operator+=(const StepCost& o) noexcept;
  /// Field-wise equality — the static stride analyzer asserts its
  /// predicted costs equal the measured ones step by step.
  bool operator==(const StepCost& o) const noexcept = default;
};

/// Running totals over a sequence of steps.
struct MachineStats {
  std::size_t steps = 0;
  std::size_t requests = 0;
  std::size_t serialization_cycles = 0;
  std::size_t replays = 0;
  std::size_t conflicting_accesses = 0;
  std::size_t max_bank_degree = 0;

  MachineStats& operator+=(const StepCost& c) noexcept;
  MachineStats& operator+=(const MachineStats& o) noexcept;
};

/// Price one warp step in place: request i is lane `lanes[i]` performing
/// `op` on physical address `addrs[i]`, on a machine with `num_banks`
/// banks.  Needs lanes.size() == addrs.size() <= kMaxLanes and every lane
/// below kMaxLanes.  Same costs and same throws as analyze_step: a repeated
/// lane, or a write step naming one address twice, throws
/// wcm::contract_error.
[[nodiscard]] StepCost price_lanes(std::span<const std::uint32_t> lanes,
                                   std::span<const std::size_t> addrs, Op op,
                                   std::size_t num_banks);

/// Analyze one synchronous step on a machine with `num_banks` modules.
/// Throws wcm::contract_error on a CREW violation (two writes, or a read and
/// a write, to the same address) or when one processor id appears twice,
/// whatever addresses its requests name.
[[nodiscard]] StepCost analyze_step(std::span<const Request> step,
                                    std::size_t num_banks);

}  // namespace wcm::dmm
