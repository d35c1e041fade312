#include "dmm/access.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "util/check.hpp"

namespace wcm::dmm {

StepCost& StepCost::operator+=(const StepCost& o) noexcept {
  requests += o.requests;
  serialization += o.serialization;
  replays += o.replays;
  conflicting_accesses += o.conflicting_accesses;
  max_bank_degree = std::max(max_bank_degree, o.max_bank_degree);
  return *this;
}

namespace {

using Index = std::uint32_t;
constexpr Index kNone = ~Index{0};

/// Requests and distinct addresses one touched bank received; `head` is
/// the newest node of its distinct-address chain.  Bit (c mod 64) of
/// `columns` is set once an address of bank-matrix column c joined the
/// chain, so a new address whose bit is clear skips the chain walk.
struct BankTally {
  Index head;
  Index requests;
  Index distinct;
  std::uint64_t columns;
};

/// One distinct address in its bank's chain.
struct AddrNode {
  std::size_t addr;
  Index next;
  bool written;  ///< a write request names this address
};

/// Throws unless the processor ids of 64 and above (hand-built steps only:
/// a simulated warp has at most 64 lanes) are pairwise distinct.
void check_high_procs_distinct(std::span<const Request> step) {
  for (std::size_t i = 0; i < step.size(); ++i) {
    if (step[i].proc < 64) {
      continue;
    }
    for (std::size_t j = i + 1; j < step.size(); ++j) {
      WCM_EXPECTS(step[j].proc != step[i].proc,
                  "duplicate processor id in one step");
    }
  }
}

/// The cost of `step` on `num_banks` banks, in one pass over the requests.
/// Working storage: `slots[b]` indexes bank b's tally (kNone while
/// untouched), with room for num_banks entries; `tally` and `node` need
/// room for one entry per request.
StepCost tally_step(std::span<const Request> step, std::size_t num_banks,
                    Index* slots, BankTally* tally, AddrNode* node) {
  const bool pow2 = (num_banks & (num_banks - 1)) == 0;
  const int shift = std::countr_zero(num_banks);
  std::fill_n(slots, num_banks, kNone);

  std::uint64_t lanes = 0;  // processor ids below 64 seen so far
  bool high_procs = false;
  Index banks = 0;
  Index nodes = 0;
  for (const Request& r : step) {
    if (r.proc < 64) {
      const std::uint64_t bit = std::uint64_t{1} << r.proc;
      WCM_EXPECTS((lanes & bit) == 0, "duplicate processor id in one step");
      lanes |= bit;
    } else {
      high_procs = true;
    }

    std::size_t bank = 0;
    std::size_t column = 0;
    if (pow2) {
      bank = r.addr & (num_banks - 1);
      column = r.addr >> shift;
    } else {
      bank = r.addr % num_banks;
      column = r.addr / num_banks;
    }
    const std::uint64_t column_bit = std::uint64_t{1} << (column & 63);
    const bool write = r.op == Op::write;
    Index& slot = slots[bank];
    if (slot == kNone) {
      slot = banks++;
      tally[slot] = {nodes, 1, 1, column_bit};
      node[nodes++] = {r.addr, kNone, write};
      continue;
    }
    BankTally& t = tally[slot];
    ++t.requests;
    Index n = kNone;
    if ((t.columns & column_bit) != 0) {
      n = t.head;
      while (n != kNone && node[n].addr != r.addr) {
        n = node[n].next;
      }
    }
    if (n == kNone) {
      node[nodes] = {r.addr, t.head, write};
      t.head = nodes++;
      ++t.distinct;
      t.columns |= column_bit;
    } else {
      WCM_EXPECTS(!write && !node[n].written,
                  "CREW violation: concurrent access to a written address");
    }
  }
  if (high_procs) {
    check_high_procs_distinct(step);
  }

  StepCost cost;
  cost.requests = step.size();
  for (Index b = 0; b < banks; ++b) {
    const BankTally& t = tally[b];
    cost.max_bank_degree = std::max<std::size_t>(cost.max_bank_degree,
                                                 t.distinct);
    if (t.distinct >= 2) {
      cost.conflicting_accesses += t.requests;
    }
  }
  cost.serialization = cost.max_bank_degree;
  cost.replays = cost.max_bank_degree > 0 ? cost.max_bank_degree - 1 : 0;
  return cost;
}

}  // namespace

StepCost analyze_step(std::span<const Request> step, std::size_t num_banks) {
  WCM_EXPECTS(num_banks > 0, "bank count must be positive");
  constexpr std::size_t kStack = 64;
  if (step.size() <= kStack && num_banks <= kStack) {
    // Left uninitialized on purpose (zeroing costs about a fifth of a
    // step): tally_step fills slot[0, num_banks) first and reads tally[i]
    // and node[i] only after writing them.
    std::array<Index, kStack> slot;
    std::array<BankTally, kStack> tally;
    std::array<AddrNode, kStack> node;
    return tally_step(step, num_banks, slot.data(), tally.data(), node.data());
  }
  WCM_EXPECTS(step.size() < kNone, "step too large");
  std::vector<Index> slot(num_banks);
  std::vector<BankTally> tally(step.size());
  std::vector<AddrNode> node(step.size());
  return tally_step(step, num_banks, slot.data(), tally.data(), node.data());
}

}  // namespace wcm::dmm
