// Differential test of the one production conflict kernel — its warp
// entry dmm::price_lanes (bitmask fast path and chain walk) and its general
// adapter dmm::analyze_step — against the sort-based reference oracle
// (tests/support/dmm_reference.hpp).  Seeded random and adversarial steps
// cover every bank count 1..64, power of two or not, every step size up to
// the warp width, and steps wider than 64 lanes or banks (the heap-storage
// path).  Contract violations must throw in the kernel and the oracle on
// the same inputs.
// SharedMemory and whole engine traces are then re-priced by the oracle
// under every layout.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "dmm/access.hpp"
#include "dmm_reference.hpp"
#include "gpusim/device.hpp"
#include "gpusim/layout.hpp"
#include "gpusim/shared_memory.hpp"
#include "gpusim/trace.hpp"
#include "sort/multiway.hpp"
#include "sort/pairwise_sort.hpp"
#include "sort/shearsort.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workload/inputs.hpp"

namespace wcm::dmm {
namespace {

std::string describe(std::span<const Request> step, std::size_t w) {
  std::ostringstream os;
  os << "w=" << w << " step=[";
  for (const Request& r : step) {
    os << ' ' << r.proc << ':' << r.addr << (r.op == Op::write ? "w" : "r");
  }
  os << " ]";
  return os.str();
}

/// Both analyzers return the same cost, or both throw contract_error.
/// Returns true when the step was valid.
bool expect_same(std::span<const Request> step, std::size_t w) {
  std::optional<StepCost> fast;
  std::optional<StepCost> ref;
  try {
    fast = analyze_step(step, w);
  } catch (const contract_error&) {
  }
  try {
    ref = reference::analyze_step(step, w);
  } catch (const contract_error&) {
  }
  EXPECT_EQ(fast.has_value(), ref.has_value()) << describe(step, w);
  if (fast && ref) {
    EXPECT_EQ(*fast, *ref) << describe(step, w);
  }
  return fast.has_value() && ref.has_value();
}

/// price_lanes on a one-op step and the oracle return the same cost, or
/// both throw contract_error.  Returns true when the step was valid.
bool expect_same_lanes(std::span<const Request> step, std::size_t w) {
  std::vector<std::uint32_t> lanes;
  std::vector<std::size_t> addrs;
  for (const Request& r : step) {
    lanes.push_back(static_cast<std::uint32_t>(r.proc));
    addrs.push_back(r.addr);
  }
  const Op op = step.empty() ? Op::read : step[0].op;
  std::optional<StepCost> fast;
  std::optional<StepCost> ref;
  try {
    fast = price_lanes(lanes, addrs, op, w);
  } catch (const contract_error&) {
  }
  std::vector<Request> uniform(step.begin(), step.end());
  for (Request& r : uniform) {
    r.op = op;
  }
  try {
    ref = reference::analyze_step(uniform, w);
  } catch (const contract_error&) {
  }
  EXPECT_EQ(fast.has_value(), ref.has_value()) << describe(uniform, w);
  if (fast && ref) {
    EXPECT_EQ(*fast, *ref) << describe(uniform, w);
  }
  return fast.has_value() && ref.has_value();
}

/// `step` with every request turned into `op`.
std::vector<Request> with_op(std::vector<Request> step, Op op) {
  for (Request& r : step) {
    r.op = op;
  }
  return step;
}

/// `n` distinct lanes drawn from [0, lanes).
std::vector<std::size_t> pick_lanes(std::size_t n, std::size_t lanes,
                                    Xoshiro256& rng) {
  std::vector<std::size_t> all(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    all[i] = i;
  }
  shuffle(all, rng);
  all.resize(n);
  return all;
}

/// A random CREW-valid step: `n` lanes reading addresses below `span`
/// (repeats broadcast), then some lanes whose address no other lane names
/// turned into writes.
std::vector<Request> random_step(std::size_t n, std::size_t lanes,
                                 std::size_t span, Xoshiro256& rng) {
  std::vector<Request> step;
  for (const std::size_t lane : pick_lanes(n, lanes, rng)) {
    step.push_back({lane, static_cast<std::size_t>(rng.below(span)), Op::read,
                    0});
  }
  for (Request& r : step) {
    std::size_t uses = 0;
    for (const Request& o : step) {
      uses += o.addr == r.addr ? 1 : 0;
    }
    if (uses == 1 && rng.below(3) == 0) {
      r.op = Op::write;
      r.value = static_cast<std::int64_t>(rng.below(1000));
    }
  }
  return step;
}

TEST(DmmDifferential, RandomStepsEveryWidthAndSize) {
  Xoshiro256 rng(20261017);
  std::size_t valid = 0;
  for (std::size_t w = 2; w <= 64; ++w) {
    for (std::size_t n = 0; n <= w; ++n) {
      // Address spans from "everything in a few banks" to "mostly
      // conflict-free", so every bank degree 1..w shows up.
      for (const std::size_t span : {std::size_t{2}, w, 3 * w, w * w}) {
        const auto step = random_step(n, w, span, rng);
        if (expect_same(step, w)) {
          ++valid;
        }
      }
    }
  }
  EXPECT_GT(valid, 0u);
}

TEST(DmmDifferential, AdversarialStepsEveryWidth) {
  Xoshiro256 rng(7);
  for (std::size_t w = 2; w <= 64; ++w) {
    for (std::size_t n = 1; n <= w; ++n) {
      const std::size_t bank = static_cast<std::size_t>(rng.below(w));
      std::vector<Request> one_bank;
      std::vector<Request> broadcast;
      std::vector<Request> stride_writes;
      std::vector<Request> conflict_free;
      for (std::size_t lane = 0; lane < n; ++lane) {
        one_bank.push_back({lane, lane * w + bank, Op::read, 0});
        broadcast.push_back({lane, bank, Op::read, 0});
        stride_writes.push_back(
            {lane, (lane % 3) * w + lane, Op::write,
             static_cast<std::int64_t>(lane)});
        conflict_free.push_back({lane, w * 5 + lane, Op::read, 0});
      }
      // Mixed: half the lanes broadcast-read one address, the rest write
      // distinct addresses in the same bank.
      std::vector<Request> mixed;
      for (std::size_t lane = 0; lane < n; ++lane) {
        mixed.push_back(lane % 2 == 0
                            ? Request{lane, bank, Op::read, 0}
                            : Request{lane, (lane + 1) * w + bank, Op::write,
                                      1});
      }
      EXPECT_TRUE(expect_same(one_bank, w));
      EXPECT_TRUE(expect_same(broadcast, w));
      EXPECT_TRUE(expect_same(stride_writes, w));
      EXPECT_TRUE(expect_same(conflict_free, w));
      EXPECT_TRUE(expect_same(mixed, w));
    }
  }
}

TEST(DmmDifferential, ViolationsThrowInBoth) {
  Xoshiro256 rng(99);
  for (std::size_t w = 2; w <= 64; ++w) {
    for (int trial = 0; trial < 8; ++trial) {
      const std::size_t n = 2 + static_cast<std::size_t>(rng.below(w - 1));
      auto step = random_step(n, w, 3 * w, rng);
      const std::size_t i = static_cast<std::size_t>(rng.below(n));
      std::size_t j = static_cast<std::size_t>(rng.below(n - 1));
      j += j >= i ? 1 : 0;
      auto write_write = step;  // two writes to one address
      write_write[i].op = Op::write;
      write_write[j].op = Op::write;
      write_write[j].addr = write_write[i].addr;
      auto read_write = step;  // a read and a write of one address
      read_write[i].op = Op::write;
      read_write[j].op = Op::read;
      read_write[j].addr = read_write[i].addr;
      auto same_lane = step;  // one processor, two (usually distinct) reads
      same_lane[j].proc = same_lane[i].proc;
      EXPECT_FALSE(expect_same(write_write, w));
      EXPECT_FALSE(expect_same(read_write, w));
      EXPECT_FALSE(expect_same(same_lane, w));
    }
  }
}

TEST(DmmDifferential, StepsBeyondSixtyFourLanesOrBanks) {
  Xoshiro256 rng(4242);
  // More than 64 lanes, and bank counts past the stack path's 64; lanes
  // numbered past 64 also take the pairwise duplicate-id check.
  for (const std::size_t w : {std::size_t{7}, std::size_t{32},
                              std::size_t{64}, std::size_t{65},
                              std::size_t{100}, std::size_t{128}}) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{33},
                                std::size_t{64}, std::size_t{65},
                                std::size_t{100}, std::size_t{200}}) {
      for (const std::size_t span : {std::size_t{3}, w, 4 * w}) {
        const auto step = random_step(n, 256, span, rng);
        EXPECT_TRUE(expect_same(step, w));
        auto dup = step;
        if (n >= 2) {
          dup[n - 1].proc = dup[0].proc;
          EXPECT_FALSE(expect_same(dup, w));
        }
      }
    }
  }
}

TEST(DmmDifferential, LaneEntryRandomStepsEveryWidth) {
  Xoshiro256 rng(20261019);
  std::size_t valid = 0;
  for (std::size_t w = 1; w <= 64; ++w) {
    for (std::size_t n = 0; n <= w; ++n) {
      for (const std::size_t span : {std::size_t{2}, w, 3 * w, w * w}) {
        const auto step = random_step(n, w, span, rng);
        if (expect_same_lanes(with_op(step, Op::read), w)) {
          ++valid;
        }
        // A write step is valid only when no address repeats.
        (void)expect_same_lanes(with_op(step, Op::write), w);
      }
    }
  }
  EXPECT_GT(valid, 0u);
}

TEST(DmmDifferential, LaneEntryShapedStepsEveryWidth) {
  // Conflict-free steps (the bitmask fast path: one request per bank, in
  // any lane and column order), broadcasts, single-bank and mixed steps.
  Xoshiro256 rng(17);
  for (std::size_t w = 1; w <= 64; ++w) {
    EXPECT_EQ(price_lanes({}, {}, Op::write, w), StepCost{});
    for (std::size_t n = 1; n <= w; ++n) {
      const std::size_t bank = static_cast<std::size_t>(rng.below(w));
      const auto lanes = pick_lanes(n, w, rng);
      const auto banks = pick_lanes(n, w, rng);
      std::vector<Request> conflict_free;
      std::vector<Request> broadcast;
      std::vector<Request> one_bank;
      std::vector<Request> mixed;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t column = static_cast<std::size_t>(rng.below(9));
        conflict_free.push_back({lanes[i], column * w + banks[i], Op::read,
                                 0});
        broadcast.push_back({lanes[i], bank, Op::read, 0});
        one_bank.push_back({lanes[i], i * w + bank, Op::read, 0});
        // Half the lanes broadcast one address, the rest spread over the
        // same bank and a conflict-free tail.
        mixed.push_back({lanes[i],
                         i % 2 == 0 ? bank : (i % 3) * w + banks[i],
                         Op::read, 0});
      }
      for (const Op op : {Op::read, Op::write}) {
        EXPECT_TRUE(expect_same_lanes(with_op(conflict_free, op), w));
        EXPECT_TRUE(expect_same_lanes(with_op(one_bank, op), w));
      }
      EXPECT_TRUE(expect_same_lanes(broadcast, w));
      EXPECT_TRUE(expect_same_lanes(mixed, w));
      // The fast path's answer: n requests, one cycle, no conflicts.
      std::vector<std::uint32_t> lane_ids;
      std::vector<std::size_t> addrs;
      for (const Request& r : conflict_free) {
        lane_ids.push_back(static_cast<std::uint32_t>(r.proc));
        addrs.push_back(r.addr);
      }
      EXPECT_EQ(price_lanes(lane_ids, addrs, Op::read, w),
                (StepCost{n, 1, 0, 0, 1}));
      // Broadcast writes and repeated lanes throw on both sides.
      if (n >= 2) {
        EXPECT_FALSE(expect_same_lanes(with_op(broadcast, Op::write), w));
        auto dup = conflict_free;
        dup[n - 1].proc = dup[0].proc;
        EXPECT_FALSE(expect_same_lanes(dup, w));
        EXPECT_FALSE(expect_same_lanes(with_op(dup, Op::write), w));
      }
    }
  }
}

TEST(DmmDifferential, LaneEntryNonPowerOfTwoAndWideBanks) {
  // w = 17 (no mask arithmetic) and bank counts past the bitmask's 64,
  // where the lane entry runs the chain walk on heap storage.
  Xoshiro256 rng(1717);
  for (const std::size_t w : {std::size_t{17}, std::size_t{65},
                              std::size_t{100}, std::size_t{128}}) {
    for (int trial = 0; trial < 300; ++trial) {
      const std::size_t n =
          static_cast<std::size_t>(rng.below(std::min<std::size_t>(w, 64) + 1));
      const std::size_t span =
          std::size_t{1} + static_cast<std::size_t>(rng.below(4 * w));
      const auto step = random_step(n, std::min<std::size_t>(w, 64), span,
                                    rng);
      (void)expect_same_lanes(with_op(step, Op::read), w);
      (void)expect_same_lanes(with_op(step, Op::write), w);
    }
  }
}

TEST(DmmDifferential, LaneEntryRejectsStepsNoWarpCanMake) {
  // More than 64 lanes, or a lane id of 64 and above, is outside the warp
  // entry's contract; analyze_step prices such steps (see
  // StepsBeyondSixtyFourLanesOrBanks).
  std::vector<std::uint32_t> lanes(65);
  std::vector<std::size_t> addrs(65);
  for (std::uint32_t i = 0; i < 65; ++i) {
    lanes[i] = i;
    addrs[i] = i;
  }
  EXPECT_THROW((void)price_lanes(lanes, addrs, Op::read, 32),
               contract_error);
  const std::vector<std::uint32_t> high{64};
  const std::vector<std::size_t> one{0};
  EXPECT_THROW((void)price_lanes(high, one, Op::read, 32), contract_error);
  EXPECT_THROW((void)price_lanes(high, addrs, Op::read, 32), contract_error);
  EXPECT_THROW((void)price_lanes({}, {}, Op::read, 0), contract_error);
}

/// MachineStats of a trace priced step by step by the reference oracle.
MachineStats reference_stats(const gpusim::Trace& trace,
                             const gpusim::SharedLayout& layout) {
  MachineStats stats;
  std::vector<Request> step;
  for (const auto& s : trace.steps) {
    if (!s.is_access()) {
      continue;
    }
    step.clear();
    for (const auto& [lane, addr] : s.accesses) {
      step.push_back({lane, layout.physical(addr),
                      s.is_write() ? Op::write : Op::read, 0});
    }
    stats += reference::analyze_step(step, trace.warp_size);
  }
  return stats;
}

void expect_stats_eq(const MachineStats& a, const MachineStats& b,
                     const std::string& what) {
  EXPECT_EQ(a.steps, b.steps) << what;
  EXPECT_EQ(a.requests, b.requests) << what;
  EXPECT_EQ(a.serialization_cycles, b.serialization_cycles) << what;
  EXPECT_EQ(a.replays, b.replays) << what;
  EXPECT_EQ(a.conflicting_accesses, b.conflicting_accesses) << what;
  EXPECT_EQ(a.max_bank_degree, b.max_bank_degree) << what;
}

/// Every layout the simulator supports at warp width w.
std::vector<gpusim::SharedLayout> layouts_for(u32 w) {
  std::vector<gpusim::SharedLayout> out{
      {w, 0, gpusim::LayoutKind::linear},
      {w, 1, gpusim::LayoutKind::linear},
      {w, 0, gpusim::LayoutKind::rotation}};
  if (is_pow2(w)) {
    out.push_back({w, 0, gpusim::LayoutKind::xor_swizzle});
  }
  return out;
}

std::string layout_name(const gpusim::SharedLayout& l) {
  return std::string(gpusim::to_string(l.kind)) + " pad=" +
         std::to_string(l.pad) + " w=" + std::to_string(l.w);
}

TEST(DmmDifferential, PhysicalAddressShiftPathMatchesDivision) {
  // SharedLayout::physical takes shifts and masks for power-of-two w; the
  // division form (row = l / w, column permuted by permute()) defines it.
  for (const u32 w : {1u, 2u, 8u, 32u, 64u}) {
    for (const u32 pad : {0u, 1u, 3u}) {
      for (const auto kind :
           {gpusim::LayoutKind::linear, gpusim::LayoutKind::xor_swizzle,
            gpusim::LayoutKind::rotation}) {
        const gpusim::SharedLayout layout{w, pad, kind};
        for (std::size_t l = 0; l < 70u * w; ++l) {
          const std::size_t row = l / w;
          const u32 col = static_cast<u32>(l % w);
          ASSERT_EQ(layout.physical(l),
                    row * (w + pad) + layout.permute(col, row))
              << layout_name(layout) << " l=" << l;
        }
      }
    }
  }
}

TEST(DmmDifferential, SharedMemoryStatsMatchReferenceUnderEveryLayout) {
  // SharedMemory stores values in logical order and prices physical
  // addresses.  A physical-order reference memory, written and read
  // through SharedLayout::physical, must see the same values, and the
  // oracle must price the recorded steps the same, under every layout
  // and pad.
  Xoshiro256 rng(1234);
  for (const u32 w : {4u, 17u, 24u, 32u, 64u}) {
    for (const u32 pad : {0u, 1u, 3u}) {
      for (const auto kind :
           {gpusim::LayoutKind::linear, gpusim::LayoutKind::rotation,
            gpusim::LayoutKind::xor_swizzle}) {
        if (kind == gpusim::LayoutKind::xor_swizzle && !is_pow2(w)) {
          continue;
        }
        const gpusim::SharedLayout layout{w, pad, kind};
        const std::size_t words = static_cast<std::size_t>(w) * 12 + 5;
        gpusim::SharedMemory shm(layout, words);
        std::vector<word> physical(layout.physical_words(words), -1);
        std::vector<word> initial(words);
        for (std::size_t l = 0; l < words; ++l) {
          initial[l] = static_cast<word>(rng.below(1000));
          physical[layout.physical(l)] = initial[l];
        }
        shm.fill(initial);
        gpusim::TraceRecorder rec;
        shm.attach_trace(&rec);
        for (int s = 0; s < 200; ++s) {
          const std::size_t n = 1 + static_cast<std::size_t>(rng.below(w));
          const auto step = random_step(n, w, words, rng);
          if (step[0].op == Op::read) {
            std::vector<gpusim::LaneRead> reads;
            for (const Request& r : step) {
              reads.push_back({static_cast<u32>(r.proc), r.addr});
            }
            const auto values = shm.warp_read(reads);
            for (std::size_t i = 0; i < reads.size(); ++i) {
              ASSERT_EQ(values[i], physical[layout.physical(reads[i].addr)])
                  << layout_name(layout);
            }
          } else {
            std::vector<gpusim::LaneWrite> writes;
            for (const Request& r : step) {
              if (r.op == Op::write) {
                writes.push_back({static_cast<u32>(r.proc), r.addr, r.value});
                physical[layout.physical(r.addr)] = r.value;
              }
            }
            shm.warp_write(writes);
          }
        }
        const auto dump = shm.dump(0, words);
        for (std::size_t l = 0; l < words; ++l) {
          ASSERT_EQ(dump[l], physical[layout.physical(l)])
              << layout_name(layout) << " l=" << l;
        }
        const auto& trace = rec.trace();
        expect_stats_eq(shm.stats(), reference_stats(trace, layout),
                        layout_name(layout));
        expect_stats_eq(gpusim::replay_stats(trace, layout),
                        reference_stats(trace, layout), layout_name(layout));
      }
    }
  }
}

TEST(DmmDifferential, EngineTracesMatchReferenceStepByStep) {
  // Whole sorts under every layout: each recorded step priced by the
  // production analyzer equals the oracle's price.
  const auto dev = gpusim::quadro_m4000();
  for (const auto& layout : layouts_for(32)) {
    sort::SortConfig cfg{5, 64, 32};
    cfg.padding = layout.pad;
    cfg.layout = layout.kind;
    const auto input = workload::random_permutation(cfg.tile() * 4, 11);
    const auto run_engines = [&](gpusim::TraceRecorder& rec) {
      cfg.trace_sink = &rec;
      (void)sort::pairwise_merge_sort(input, cfg, dev);
      (void)sort::multiway_merge_sort(input, cfg, dev, 2);
      (void)sort::shearsort(input, cfg, dev);
    };
    gpusim::TraceRecorder rec;
    run_engines(rec);
    const auto& trace = rec.trace();
    const auto costs = gpusim::replay_step_costs(trace, layout);
    ASSERT_EQ(costs.size(), trace.steps.size());
    std::vector<Request> step;
    std::size_t checked = 0;
    for (std::size_t i = 0; i < trace.steps.size(); ++i) {
      const auto& s = trace.steps[i];
      if (!s.is_access()) {
        continue;
      }
      step.clear();
      for (const auto& [lane, addr] : s.accesses) {
        step.push_back({lane, layout.physical(addr),
                        s.is_write() ? Op::write : Op::read, 0});
      }
      ASSERT_EQ(costs[i], reference::analyze_step(step, 32))
          << layout_name(layout) << " step " << i;
      ++checked;
    }
    EXPECT_GT(checked, 1000u) << layout_name(layout);
  }
}

}  // namespace
}  // namespace wcm::dmm
