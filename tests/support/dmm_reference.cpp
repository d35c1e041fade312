#include "dmm_reference.hpp"

#include <algorithm>
#include <vector>

#include "dmm/bank_matrix.hpp"
#include "util/check.hpp"

namespace wcm::dmm::reference {

StepCost analyze_step(std::span<const Request> step, std::size_t num_banks) {
  WCM_EXPECTS(num_banks > 0, "bank count must be positive");

  StepCost cost;
  cost.requests = step.size();
  if (step.empty()) {
    return cost;
  }

  std::vector<std::size_t> procs;
  for (const Request& r : step) {
    procs.push_back(r.proc);
  }
  std::sort(procs.begin(), procs.end());
  WCM_EXPECTS(std::adjacent_find(procs.begin(), procs.end()) == procs.end(),
              "duplicate processor id in one step");

  // Sort a copy by (bank, addr) so distinct addresses per bank — and CREW
  // violations — can be found with one linear scan.
  std::vector<Request> sorted(step.begin(), step.end());
  std::sort(sorted.begin(), sorted.end(),
            [num_banks](const Request& a, const Request& b) {
              const std::size_t ba = bank_of(a.addr, num_banks);
              const std::size_t bb = bank_of(b.addr, num_banks);
              if (ba != bb) {
                return ba < bb;
              }
              return a.addr < b.addr;
            });

  std::size_t i = 0;
  while (i < sorted.size()) {
    const std::size_t bank = bank_of(sorted[i].addr, num_banks);
    std::size_t bank_end = i;
    while (bank_end < sorted.size() &&
           bank_of(sorted[bank_end].addr, num_banks) == bank) {
      ++bank_end;
    }

    // Count distinct addresses within [i, bank_end); enforce CREW.
    std::size_t distinct = 0;
    std::size_t j = i;
    while (j < bank_end) {
      const std::size_t addr = sorted[j].addr;
      std::size_t same = 0;
      bool any_write = false;
      while (j < bank_end && sorted[j].addr == addr) {
        any_write = any_write || sorted[j].op == Op::write;
        ++same;
        ++j;
      }
      WCM_EXPECTS(!any_write || same == 1,
                  "CREW violation: concurrent access to a written address");
      ++distinct;
    }

    cost.max_bank_degree = std::max(cost.max_bank_degree, distinct);
    if (distinct >= 2) {
      cost.conflicting_accesses += bank_end - i;
    }
    i = bank_end;
  }

  cost.serialization = cost.max_bank_degree;
  cost.replays = cost.max_bank_degree > 0 ? cost.max_bank_degree - 1 : 0;
  return cost;
}

}  // namespace wcm::dmm::reference
