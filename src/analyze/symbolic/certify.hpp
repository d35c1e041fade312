#pragma once
// Certification mode of the symbolic prover (`wcmgen prove --certify`):
// a universal-quantification pass over an engine's access-pattern IR that
// either machine-proves conflict_degree == 1 for *every* shared-memory
// step and every valuation of (E, b, pad, warp shifts) in the declared
// ranges, or emits a concrete counterexample — the offending IR statement,
// a valuation, and the witness lane addresses — cross-checked by replaying
// that valuation through the DMM simulator.
//
// A Certificate is the machine-readable artifact the wcm_certify_ci gate
// pins: the per-statement congruence facts (method, degree, exactness) for
// every (b, pad) cell in the requested grid, the verdict, and an fnv1a
// digest over the rendered JSON body.  An engine that claims bank-conflict
// immunity (shearsort under xor/rotation/pad-coprime layouts) fails the
// build the moment any statement loses its degree-1 proof.

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "analyze/symbolic/prove.hpp"

namespace wcm::analyze::symbolic {

/// The prover's shape and engine parameters, with the grid axes bs / pads
/// in place of the scalar b / pad (which certification ignores).
struct CertifyOptions : ProveOptions {
  std::vector<u32> bs = {64};    ///< block sizes to certify (grid axis)
  std::vector<u32> pads = {0};   ///< padding values to certify (grid axis)
};

/// One refutation: a concrete valuation and lane-address witness for a
/// statement whose proved degree exceeds 1, plus the DMM replay verdict.
struct CertCounterexample {
  u32 b = 0;
  u32 pad = 0;
  std::string group;    ///< offending IR statement
  std::string kind;     ///< "read" | "write"
  std::string pattern;  ///< rendered IR
  /// (symbol, value) rows of the witness valuation, declaration order.
  std::vector<std::pair<std::string, i64>> valuation;
  std::vector<i64> addresses;  ///< witness lane addresses (lane = index)
  u64 bound_degree = 0;     ///< the symbolic bound being refuted
  u64 witness_degree = 0;   ///< exact per-bank count of the witness
  u64 replayed_degree = 0;  ///< DMM replay of the same addresses
  bool confirmed = false;   ///< replayed_degree == witness_degree > 1
};

/// One (b, pad) cell of the certification grid: the full per-statement
/// fact table is the cell's EngineReport groups.
struct CertCell {
  u32 b = 0;
  u32 pad = 0;
  EngineReport report;
};

struct Certificate {
  std::string engine;
  u32 w = 0;
  gpusim::LayoutKind layout = gpusim::LayoutKind::linear;
  u32 e_min = 0;
  u32 e_max = 0;
  bool any_e = false;
  std::vector<CertCell> cells;
  std::vector<CertCounterexample> counterexamples;
  /// True iff every statement of every cell is proved degree <= 1.
  bool certified = false;
  u64 digest = 0;  ///< fnv1a over the rendered JSON body
};

/// Run the certification pass for one engine over the options' (b, pad)
/// grid.  Throws wcm::parse_error on an unknown engine.
[[nodiscard]] Certificate certify_engine(const std::string& engine,
                                         const CertifyOptions& opts);

void render_text(std::ostream& os, const Certificate& cert);
void render_json(std::ostream& os, const Certificate& cert);

}  // namespace wcm::analyze::symbolic
