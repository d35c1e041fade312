#pragma once
// Reference oracle for dmm::analyze_step: the straightforward sort-based
// definition of a DMM step's cost.  It sorts a copy of the step by
// (bank, address) and counts distinct addresses per bank in one linear
// scan.  Tests compare the production analyzer against it; the microbench
// reports the per-step ratio of the two.  Not part of the library.

#include <cstddef>
#include <span>

#include "dmm/access.hpp"

namespace wcm::dmm::reference {

/// Same contract as dmm::analyze_step: the cost of one step on `num_banks`
/// banks; throws wcm::contract_error on a CREW violation or a repeated
/// processor id.
[[nodiscard]] StepCost analyze_step(std::span<const Request> step,
                                    std::size_t num_banks);

}  // namespace wcm::dmm::reference
