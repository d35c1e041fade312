#pragma once
// Affine stride analysis: classify each warp-wide access step as
// addr = base + stride * lane where possible, and *predict* its
// serialization from number theory alone — then cross-check the prediction
// against the DMM-measured StepCost of the same step.  Agreement is what
// makes the conflict model trustworthy; any divergence is a model bug and
// is reported as a stride-divergence diagnostic.
//
// The mathematics (unpadded layout, w banks, stride s != 0, full or
// partial warp): let g = gcd(w, |s|) and p = w / g.  Lanes l1, l2 hit the
// same bank iff s*(l1 - l2) === 0 (mod w) iff l1 === l2 (mod p), and lanes
// of one residue class modulo p always request *distinct* addresses, all
// in one bank (s*p === 0 (mod w)); distinct classes land in distinct
// banks.  Hence
//
//   serialization = max over residue classes mod p of the class size
//                 = gcd(w, s) for a full warp
//
// (the "w / gcd(w, s) distinct banks" phrasing counts the banks touched,
// not the cycles; docs/LINT.md spells out both).  A zero stride is the
// broadcast: one cycle regardless of warp occupancy — for loads; stores
// to one address are a CREW violation, which the race pass reports.
//
// Padded and permuted layouts (gpusim/layout.hpp) keep a closed form
// whenever the stride is a multiple of w: the column is lane-invariant,
// the row advances by k = s/w per lane, and the bank becomes an affine
// (or, for xor, bijective) function of the row residue with an *effective*
// stride — k*pad (linear), k*(1+pad) (rotation), k (xor, unpadded) — fed
// into the same gcd argument.  Combinations with no clean residue form
// (sub-w strides under padding/permutation, xor with padding) and
// non-affine steps fall back to exact per-bank counting over physical
// addresses, mirroring dmm::analyze_step without executing the machine.

#include <span>
#include <vector>

#include "analyze/diagnostics.hpp"
#include "gpusim/trace.hpp"

namespace wcm::analyze {

/// Affine classification of one access step.
struct AffineClass {
  bool affine = false;  ///< every access satisfies addr == base + stride*lane
  i64 base = 0;         ///< extrapolated lane-0 address (may be negative)
  i64 stride = 0;
};

/// Classify an access step; steps with < 2 accesses are affine with
/// stride 0, non-access steps are not affine.
[[nodiscard]] AffineClass classify_affine(const gpusim::TraceStep& step);

/// Closed-form serialization of an affine step on `w` unpadded banks:
/// max residue-class population of `lanes` modulo w / gcd(w, |stride|)
/// (1 for a zero stride — the broadcast).  `lanes` need not be sorted.
[[nodiscard]] std::size_t predict_affine_serialization(
    u32 w, i64 stride, std::span<const u32> lanes);

/// Full predicted StepCost of one step under `layout`: closed form for
/// affine steps on unpadded layouts, exact per-bank address counting
/// otherwise.  Never executes the DMM machine.  Zero cost for non-access
/// steps.
[[nodiscard]] dmm::StepCost predict_step_cost(
    const gpusim::TraceStep& step, const gpusim::SharedLayout& layout);

/// Result of the stride pass over a whole trace.
struct StrideReport {
  std::vector<Diagnostic> diagnostics;  ///< stride-divergence findings
  std::size_t access_steps = 0;
  std::size_t affine_steps = 0;  ///< of which affine (incl. broadcasts)
  dmm::StepCost measured;        ///< summed DMM replay cost of every step
};

/// Predict every step and cross-check against replay_step_costs under the
/// same layout.  Precondition: the trace is race/CREW/duplicate-lane clean
/// (the DMM replay throws on such traces); the analyzer gates on that.
[[nodiscard]] StrideReport check_strides(const gpusim::Trace& trace,
                                         const gpusim::SharedLayout& layout);

}  // namespace wcm::analyze
