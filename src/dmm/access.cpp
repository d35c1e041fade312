#include "dmm/access.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

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

MachineStats& MachineStats::operator+=(const StepCost& c) noexcept {
  steps += 1;
  requests += c.requests;
  serialization_cycles += c.serialization;
  replays += c.replays;
  conflicting_accesses += c.conflicting_accesses;
  max_bank_degree = std::max(max_bank_degree, c.max_bank_degree);
  return *this;
}

MachineStats& MachineStats::operator+=(const MachineStats& o) noexcept {
  steps += o.steps;
  requests += o.requests;
  serialization_cycles += o.serialization_cycles;
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

/// Bank and bank-matrix column of an address on `num_banks` banks.  The
/// power-of-two case is a template argument, so the hot loops carry masks
/// and shifts and no division, not a per-request branch.
template <bool Pow2>
struct BankSplit {
  std::size_t num_banks;

  [[nodiscard]] std::size_t bank(std::size_t addr) const noexcept {
    if constexpr (Pow2) {
      return addr & (num_banks - 1);
    } else {
      return addr % num_banks;
    }
  }
  [[nodiscard]] std::size_t column(std::size_t addr) const noexcept {
    if constexpr (Pow2) {
      return addr >> std::countr_zero(num_banks);
    } else {
      return addr / num_banks;
    }
  }
};

/// Throws unless the `n` processor ids proc(0..n-1) are pairwise distinct:
/// one mask for ids below 64 (every simulated warp lane), a pairwise scan
/// for the rest (hand-built steps only).
template <class Proc>
void check_procs_distinct(std::size_t n, Proc proc) {
  std::uint64_t low = 0;
  bool high = false;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t p = proc(i);
    if (p < kMaxLanes) {
      const std::uint64_t bit = std::uint64_t{1} << p;
      WCM_EXPECTS((low & bit) == 0, "duplicate processor id in one step");
      low |= bit;
    } else {
      high = true;
    }
  }
  if (!high) {
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (proc(i) < kMaxLanes) {
      continue;
    }
    for (std::size_t j = i + 1; j < n; ++j) {
      WCM_EXPECTS(proc(j) != proc(i), "duplicate processor id in one step");
    }
  }
}

/// The bitmask fast path (num_banks <= 64): true when no two of the `n`
/// addresses share a bank.  Then every address is distinct, no CREW rule
/// can be broken, and the step costs one cycle.
template <class Split, class Addr>
bool one_request_per_bank(std::size_t n, Split split, Addr addr) noexcept {
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t bit = std::uint64_t{1} << split.bank(addr(i));
    if ((seen & bit) != 0) {
      return false;
    }
    seen |= bit;
  }
  return true;
}

/// The chain walk: the cost of the `n` requests addr(i) (a write when
/// write(i)), in one pass.  Working storage: `slots[b]` indexes bank b's
/// tally (kNone while untouched), with room for num_banks entries; `tally`
/// and `node` need room for one entry per request.  `split` is taken by
/// value so that stores into the working storage cannot alias it.
template <class Split, class Addr, class Write>
StepCost tally_step(std::size_t n, Split split, Addr addr, Write write,
                    Index* slots, BankTally* tally, AddrNode* node) {
  std::fill_n(slots, split.num_banks, kNone);
  Index banks = 0;
  Index nodes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t a = addr(i);
    const bool w = write(i);
    const std::uint64_t column_bit = std::uint64_t{1}
                                     << (split.column(a) & 63);
    Index& slot = slots[split.bank(a)];
    if (slot == kNone) {
      slot = banks++;
      tally[slot] = {nodes, 1, 1, column_bit};
      node[nodes++] = {a, kNone, w};
      continue;
    }
    BankTally& t = tally[slot];
    ++t.requests;
    Index m = kNone;
    if ((t.columns & column_bit) != 0) {
      m = t.head;
      while (m != kNone && node[m].addr != a) {
        m = node[m].next;
      }
    }
    if (m == kNone) {
      node[nodes] = {a, t.head, w};
      t.head = nodes++;
      ++t.distinct;
      t.columns |= column_bit;
    } else {
      WCM_EXPECTS(!w && !node[m].written,
                  "CREW violation: concurrent access to a written address");
    }
  }

  StepCost cost;
  cost.requests = n;
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

/// The one conflict kernel behind both entries, once the processor ids
/// are known to be distinct: the bitmask fast path, else the chain walk on
/// stack storage (at most 64 requests and banks) or heap storage.
template <class Split, class Addr, class Write>
StepCost price_split(std::size_t n, Split split, Addr addr, Write write) {
  const std::size_t num_banks = split.num_banks;
  if (num_banks <= kMaxLanes && one_request_per_bank(n, split, addr)) {
    const std::size_t busy = n > 0 ? 1 : 0;
    return {n, busy, 0, 0, busy};
  }
  if (n <= kMaxLanes && num_banks <= kMaxLanes) {
    // Left uninitialized on purpose (zeroing costs about a fifth of a
    // step): tally_step fills slot[0, num_banks) first and reads tally[i]
    // and node[i] only after writing them.
    std::array<Index, kMaxLanes> slot;
    std::array<BankTally, kMaxLanes> tally;
    std::array<AddrNode, kMaxLanes> node;
    return tally_step(n, split, addr, write, slot.data(), tally.data(),
                      node.data());
  }
  WCM_EXPECTS(n < kNone, "step too large");
  std::vector<Index> slot(num_banks);
  std::vector<BankTally> tally(n);
  std::vector<AddrNode> node(n);
  return tally_step(n, split, addr, write, slot.data(), tally.data(),
                    node.data());
}

template <class Addr, class Write>
StepCost price(std::size_t n, std::size_t num_banks, Addr addr, Write write) {
  if ((num_banks & (num_banks - 1)) == 0) {
    return price_split(n, BankSplit<true>{num_banks}, addr, write);
  }
  return price_split(n, BankSplit<false>{num_banks}, addr, write);
}

}  // namespace

StepCost price_lanes(std::span<const std::uint32_t> lanes,
                     std::span<const std::size_t> addrs, Op op,
                     std::size_t num_banks) {
  const std::size_t n = lanes.size();
  WCM_EXPECTS(num_banks > 0, "bank count must be positive");
  WCM_EXPECTS(addrs.size() == n && n <= kMaxLanes,
              "a warp step names at most 64 lanes, one address each");
  std::uint64_t seen = 0;
  for (const std::uint32_t lane : lanes) {
    WCM_EXPECTS(lane < kMaxLanes, "lane id out of range");
    const std::uint64_t bit = std::uint64_t{1} << lane;
    WCM_EXPECTS((seen & bit) == 0, "duplicate processor id in one step");
    seen |= bit;
  }
  const bool write = op == Op::write;
  return price(
      n, num_banks, [addrs](std::size_t i) { return addrs[i]; },
      [write](std::size_t) { return write; });
}

StepCost analyze_step(std::span<const Request> step, std::size_t num_banks) {
  WCM_EXPECTS(num_banks > 0, "bank count must be positive");
  check_procs_distinct(step.size(),
                       [step](std::size_t i) { return step[i].proc; });
  return price(
      step.size(), num_banks, [step](std::size_t i) { return step[i].addr; },
      [step](std::size_t i) { return step[i].op == Op::write; });
}

}  // namespace wcm::dmm
