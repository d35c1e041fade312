#pragma once
// The `wcmgen verify` front end: runs the static-analysis pass pipeline
// (pass.hpp) over every requested engine at every requested warp width,
// then backs the static claims with two independent obligations:
//
//   breakdown — the parametric-w sweep's negative result, made precise:
//               for every non-coprime (w, E) regime (gcd(w, E) > 1) the
//               report compares the aligned-element count the Theorem 3/9
//               closed forms would promise against what the sorted-order
//               construction actually attains (maximised over the
//               alignment-window start and per-thread scan orders),
//               pinpointing exactly where the paper's worst-case
//               constructions stop being worst-case;
//   differential — the static-vs-dynamic gate: on a small concrete grid
//               every engine runs end to end with a trace recorder and the
//               replayed per-step conflict degrees must be bracketed by
//               the conflict bounds the static pipeline derived for that
//               exact (engine, E, w, layout) cell.
//
// The report is deterministic and digest-sealed (fnv1a over the JSON body,
// same sealing as `wcmgen prove`), so CI can byte-compare two runs.

#include <iosfwd>
#include <string>
#include <vector>

#include "analyze/passes/pass.hpp"
#include "gpusim/layout.hpp"

namespace wcm::analyze::passes {

/// The prover's shape and engine parameters with the warp widths ws in
/// place of the scalar w (which the sweep ignores), defaulting to every E
/// in [1, 256] rather than the prover's odd E < w.
struct VerifyOptions : symbolic::ProveOptions {
  VerifyOptions() {
    e_min = 1;
    e_max = 256;
    any_e = true;
  }
  std::vector<u32> ws = {2, 4, 8, 16, 32, 64};  ///< warp widths to sweep
  bool differential = true;
};

/// One (engine, w) shape's verdicts from the three passes.
struct ShapeVerdict {
  std::string engine;
  u32 w = 0;
  bool barriers_uniform = false;
  std::size_t barriers_checked = 0;
  bool defuse_clean = false;
  bool defuse_seeded = false;
  bool bounds_proved = false;
  u64 max_read_bound = 0;
  u64 max_write_bound = 0;
  std::vector<Diagnostic> findings;
  bool ok = false;  ///< all three verdicts hold and no error finding
};

/// One non-coprime (w, E) cell of the parametric sweep: does the coprime
/// closed form still describe the worst case here?
struct BreakdownRow {
  u32 w = 0;
  u32 E = 0;
  u32 gcd = 0;
  std::string regime;  ///< "power_of_two" | "shared_factor"
  u64 promised = 0;    ///< Theorem 3/9 closed form, coprimality assumed
  u64 attained = 0;    ///< best sorted-order alignment over window starts
  u64 step_bound = 0;  ///< symbolic theorem-site window bound at this E
  bool breaks_down = false;  ///< attained < promised
};

/// One cell of the static-vs-dynamic differential gate.
struct DifferentialCell {
  std::string engine;
  u32 w = 0;
  u32 E = 0;
  gpusim::LayoutKind layout = gpusim::LayoutKind::linear;
  u64 max_read_bound = 0;
  u64 max_write_bound = 0;
  std::size_t violations = 0;  ///< replayed steps exceeding their bound
  bool ok = false;
};

struct VerifyReport {
  VerifyOptions opts;
  std::vector<ShapeVerdict> shapes;
  std::vector<std::string> skipped;  ///< "engine@w: reason" shape skips
  std::vector<BreakdownRow> breakdown;
  std::vector<DifferentialCell> differential;
  bool proved = false;           ///< every shape verdict ok
  bool differential_ok = false;  ///< every differential cell bracketed
  u64 digest = 0;                ///< fnv1a over the rendered JSON body
};

/// Run the pipeline.  Throws wcm::parse_error on an unknown engine name and
/// wcm::config_error on an engine parameter out of range or an engine that
/// fits none of the widths (sort/registry.hpp's shape rules); propagates
/// the typed error of an injected pass failure unchanged (no partial report
/// survives a mid-pipeline fault).
[[nodiscard]] VerifyReport run_verify(const std::vector<std::string>& engines,
                                      const VerifyOptions& opts);

void render_text(std::ostream& os, const VerifyReport& report);
void render_json(std::ostream& os, const VerifyReport& report);

}  // namespace wcm::analyze::passes
