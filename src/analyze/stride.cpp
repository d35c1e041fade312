#include "analyze/stride.hpp"

#include <algorithm>
#include <string>

#include "util/check.hpp"

namespace wcm::analyze {

AffineClass classify_affine(const gpusim::TraceStep& step) {
  AffineClass cls;
  if (!step.is_access() || step.accesses.empty()) {
    return cls;
  }
  const auto& acc = step.accesses;
  if (acc.size() == 1) {
    cls.affine = true;
    cls.stride = 0;
    cls.base = static_cast<i64>(acc[0].second);
    return cls;
  }
  // Fit stride from the first two distinct lanes, then verify every access.
  const i64 l0 = static_cast<i64>(acc[0].first);
  const i64 a0 = static_cast<i64>(acc[0].second);
  const i64 dl = static_cast<i64>(acc[1].first) - l0;
  const i64 da = static_cast<i64>(acc[1].second) - a0;
  if (dl == 0 || da % dl != 0) {
    return cls;
  }
  const i64 stride = da / dl;
  const i64 base = a0 - stride * l0;
  for (const auto& [lane, addr] : acc) {
    if (static_cast<i64>(addr) != base + stride * static_cast<i64>(lane)) {
      return cls;
    }
  }
  cls.affine = true;
  cls.stride = stride;
  cls.base = base;
  return cls;
}

std::size_t predict_affine_serialization(u32 w, i64 stride,
                                         std::span<const u32> lanes) {
  WCM_EXPECTS(w >= 1, "warp size must be positive");
  if (lanes.empty()) {
    return 0;
  }
  if (stride == 0) {
    return 1;  // broadcast: one address, one cycle
  }
  const u64 mag = static_cast<u64>(stride < 0 ? -stride : stride);
  const u64 g = gcd(w, mag);
  const u64 p = w / g;  // lanes collide iff congruent mod p
  std::vector<std::size_t> population(p, 0);
  std::size_t worst = 0;
  for (const u32 lane : lanes) {
    worst = std::max(worst, ++population[lane % p]);
  }
  return worst;
}

namespace {

/// Exact predictor: per-bank distinct physical addresses, the definition
/// dmm::analyze_step implements — recomputed here without the machine so
/// the cross-check exercises two independent code paths.
dmm::StepCost exact_cost(const gpusim::TraceStep& step,
                         const gpusim::SharedLayout& layout) {
  dmm::StepCost cost;
  cost.requests = step.accesses.size();
  std::vector<std::pair<std::size_t, std::size_t>> by_bank;  // (bank, phys)
  by_bank.reserve(step.accesses.size());
  for (const auto& [lane, addr] : step.accesses) {
    (void)lane;
    const std::size_t phys = layout.physical(addr);
    by_bank.emplace_back(phys % layout.w, phys);
  }
  std::sort(by_bank.begin(), by_bank.end());
  std::size_t i = 0;
  while (i < by_bank.size()) {
    const std::size_t bank = by_bank[i].first;
    std::size_t bank_end = i;
    std::size_t distinct = 0;
    std::size_t prev_addr = 0;
    while (bank_end < by_bank.size() && by_bank[bank_end].first == bank) {
      if (bank_end == i || by_bank[bank_end].second != prev_addr) {
        ++distinct;  // same-address requests broadcast
      }
      prev_addr = by_bank[bank_end].second;
      ++bank_end;
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

/// Closed-form predictor for affine steps: lanes of an affine step collide
/// iff they are congruent modulo w / gcd(w, eff), where `eff` is the
/// layout's *effective bank stride*:
///   linear, pad 0       eff = |stride|      (the classic gcd form)
///   stride ≡ 0 (mod w)  the column is lane-invariant and the row advances
///                       by k = stride / w per lane, so the bank is an
///                       affine function of the row residue:
///     linear, pad p       bank += k*p        eff = |k*p|
///     rotation, pad p     bank += k*(1+p)    eff = |k*(1+p)|
///     xor, pad 0          col ^ r is bijective in r for a fixed col, so
///                         lanes collide iff their rows agree mod w:
///                                            eff = |k|
/// Any other layout x stride combination (sub-w strides under padding or
/// permutation, xor with padding) has no clean residue form.  Returns
/// false in that case; the caller falls back to exact counting.
bool affine_closed_form(const gpusim::TraceStep& step,
                        const gpusim::SharedLayout& layout, i64 stride,
                        dmm::StepCost& cost) {
  using gpusim::LayoutKind;
  cost = {};
  cost.requests = step.accesses.size();
  if (step.accesses.empty()) {
    return true;
  }
  if (stride == 0) {
    cost.serialization = 1;
    cost.replays = 0;
    cost.conflicting_accesses = 0;
    cost.max_bank_degree = 1;
    return true;  // broadcast: one address, one bank under every layout
  }
  const i64 w = static_cast<i64>(layout.w);
  u64 eff = 0;
  if (layout.kind == LayoutKind::linear && layout.pad == 0) {
    eff = static_cast<u64>(stride < 0 ? -stride : stride);
  } else if (stride % w == 0) {
    const i64 k = stride / w;
    i64 signed_eff = 0;
    switch (layout.kind) {
      case LayoutKind::linear:
        signed_eff = k * static_cast<i64>(layout.pad);
        break;
      case LayoutKind::rotation:
        signed_eff = k * (1 + static_cast<i64>(layout.pad));
        break;
      case LayoutKind::xor_swizzle:
        if (layout.pad != 0) {
          return false;
        }
        signed_eff = k;
        break;
    }
    eff = static_cast<u64>(signed_eff < 0 ? -signed_eff : signed_eff);
  } else {
    return false;
  }
  // gcd(w, 0) = w: a zero effective stride parks every lane in one bank,
  // with pairwise-distinct addresses (stride != 0).
  const u64 p = layout.w / gcd(layout.w, eff);
  // Residue classes mod p partition the active lanes; one class = one bank
  // full of pairwise-distinct addresses, distinct classes = distinct banks.
  std::vector<std::size_t> population(p, 0);
  for (const auto& [lane, addr] : step.accesses) {
    (void)addr;
    ++population[lane % p];
  }
  for (const std::size_t n : population) {
    cost.max_bank_degree = std::max(cost.max_bank_degree, n);
    if (n >= 2) {
      cost.conflicting_accesses += n;
    }
  }
  cost.serialization = cost.max_bank_degree;
  cost.replays = cost.max_bank_degree > 0 ? cost.max_bank_degree - 1 : 0;
  return true;
}

}  // namespace

dmm::StepCost predict_step_cost(const gpusim::TraceStep& step,
                                const gpusim::SharedLayout& layout) {
  if (!step.is_access()) {
    return {};
  }
  const AffineClass cls = classify_affine(step);
  if (cls.affine &&
      !(cls.stride == 0 && step.is_write() && step.accesses.size() > 1)) {
    // The excluded case — a multi-lane store to one address — is a CREW
    // violation with no defined cost; exact mode degrades gracefully.
    dmm::StepCost cost;
    if (affine_closed_form(step, layout, cls.stride, cost)) {
      return cost;
    }
  }
  return exact_cost(step, layout);
}

StrideReport check_strides(const gpusim::Trace& trace,
                           const gpusim::SharedLayout& layout) {
  WCM_EXPECTS(layout.w == trace.warp_size,
              "layout bank count must match the trace's warp size");
  StrideReport report;
  const auto measured = gpusim::replay_step_costs(trace, layout);
  for (std::size_t si = 0; si < trace.steps.size(); ++si) {
    const gpusim::TraceStep& step = trace.steps[si];
    if (!step.is_access()) {
      continue;
    }
    ++report.access_steps;
    report.measured += measured[si];
    const AffineClass cls = classify_affine(step);
    if (cls.affine) {
      ++report.affine_steps;
    }
    const dmm::StepCost predicted = predict_step_cost(step, layout);
    if (!(predicted == measured[si])) {
      std::vector<u32> lanes;
      lanes.reserve(step.accesses.size());
      for (const auto& [lane, addr] : step.accesses) {
        (void)addr;
        lanes.push_back(lane);
      }
      std::sort(lanes.begin(), lanes.end());
      std::string what =
          cls.affine ? "affine step (stride " + std::to_string(cls.stride) +
                           ", base " + std::to_string(cls.base) + ")"
                     : "non-affine step";
      report.diagnostics.push_back(
          {Severity::error, Rule::stride_divergence, si, std::move(lanes),
           what + ": predicted serialization " +
               std::to_string(predicted.serialization) + " (" +
               std::to_string(predicted.conflicting_accesses) +
               " conflicting accesses) but the DMM measured " +
               std::to_string(measured[si].serialization) + " (" +
               std::to_string(measured[si].conflicting_accesses) +
               ") — conflict-model bug"});
    }
  }
  return report;
}

}  // namespace wcm::analyze
