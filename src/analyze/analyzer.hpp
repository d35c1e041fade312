#pragma once
// The kernel sanitizer's front door: run every static pass over one
// recorded trace and collect the findings into one report.  Pass order
// matters — memcheck and the race/CREW pass are pure trace walks, while
// the stride cross-check replays the trace through the DMM machine, which
// *throws* on CREW violations and duplicate lanes; the analyzer therefore
// only cross-checks traces the structural passes found clean.

#include <iosfwd>
#include <string>
#include <vector>

#include "analyze/diagnostics.hpp"
#include "analyze/stride.hpp"
#include "gpusim/trace.hpp"

namespace wcm::analyze {

struct AnalyzeOptions {
  /// Padding words per w logical words for the stride cross-check; the
  /// bank count always comes from the trace's warp size.
  u32 pad = 0;
  /// Bank permutation for the stride cross-check (gpusim/layout.hpp).
  gpusim::LayoutKind layout = gpusim::LayoutKind::linear;
  /// Run the predicted-vs-measured stride cross-check (skipped
  /// automatically when structural errors make the replay impossible).
  bool cross_check = true;
};

struct AnalysisReport {
  std::vector<Diagnostic> diagnostics;
  std::size_t steps = 0;
  std::size_t access_steps = 0;
  std::size_t barriers = 0;
  std::size_t affine_steps = 0;
  /// False when structural errors forced the stride pass to be skipped.
  bool cross_checked = false;
  /// Summed DMM replay cost under the options' layout (when cross_checked).
  dmm::StepCost replayed;

  [[nodiscard]] std::size_t errors() const noexcept;
  [[nodiscard]] std::size_t warnings() const noexcept;
  [[nodiscard]] bool clean() const noexcept { return diagnostics.empty(); }
};

/// Run memcheck, the race detector, and (optionally) the stride
/// cross-check.  Diagnostics are sorted by step index, then rule.
[[nodiscard]] AnalysisReport analyze_trace(const gpusim::Trace& trace,
                                           const AnalyzeOptions& options = {});

/// Human-readable report: one line per diagnostic plus a summary line.
/// `name` labels the trace (typically the file path).
void render_text(std::ostream& os, const AnalysisReport& report,
                 const std::string& name);

/// JSON object for the whole report.
void render_json(std::ostream& os, const AnalysisReport& report,
                 const std::string& name);

}  // namespace wcm::analyze
