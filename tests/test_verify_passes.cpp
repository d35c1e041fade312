// Unit and sweep tests for the static-analysis pass manager
// (analyze/passes): the barrier-divergence checker on synthetic bad IR,
// the symbolic def-use pass's interval/tiling reasoning, the
// parametric-w conflict-bound lift, the footprint-widening eval_extent
// domain entry point, and the whole-engine verify sweep with its
// breakdown rows and digest determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analyze/passes/pass.hpp"
#include "analyze/passes/verify.hpp"
#include "analyze/symbolic/domain.hpp"
#include "analyze/symbolic/prove.hpp"

namespace wcm {
namespace {

namespace ir = gpusim::ir;
using analyze::Diagnostic;
using analyze::Rule;
using analyze::Severity;
using analyze::passes::PassContext;
using analyze::passes::PassManager;

/// Minimal well-formed two-lane kernel: fill the 8-word tile, barrier,
/// read it back contiguously.
ir::KernelDesc tiny_desc() {
  ir::KernelDesc d;
  d.kernel = "tiny";
  d.w = 2;
  d.b = 2;
  d.words = ir::LinForm::constant(8);
  d.groups.push_back(ir::with_region(ir::fill_group("stage", "1"),
                                     ir::LinForm::constant(0),
                                     ir::LinForm::constant(7)));
  d.groups.push_back(ir::barrier_group("sync"));
  d.groups.push_back(ir::affine_group("load", ir::GroupKind::read, 2,
                                      ir::LinForm::constant(0),
                                      ir::LinForm::constant(1), "1"));
  return d;
}

PassContext run_passes(ir::KernelDesc desc) {
  PassContext ctx;
  ctx.engine = "synthetic";
  ctx.opts.w = desc.w;
  ctx.opts.b = desc.b;
  ctx.opts.e_min = 1;
  ctx.opts.e_max = 1;
  ctx.desc = std::move(desc);
  PassManager pm;
  pm.add(analyze::passes::make_barrier_divergence_pass());
  pm.add(analyze::passes::make_defuse_pass());
  pm.run(ctx);
  return ctx;
}

bool has_rule(const PassContext& ctx, Rule rule) {
  return std::any_of(ctx.findings.begin(), ctx.findings.end(),
                     [&](const Diagnostic& d) { return d.rule == rule; });
}

// --- barrier-divergence pass ---------------------------------------------

TEST(BarrierDivergence, CleanKernelIsUniform) {
  const PassContext ctx = run_passes(tiny_desc());
  EXPECT_TRUE(ctx.barriers_uniform);
  EXPECT_EQ(ctx.barriers_checked, 1u);
  EXPECT_TRUE(ctx.defuse_clean);
  EXPECT_TRUE(ctx.findings.empty());
}

TEST(BarrierDivergence, BarrierCarryingLaneWorkIsFlagged) {
  ir::KernelDesc d = tiny_desc();
  ir::StepGroup bad = ir::affine_group("work", ir::GroupKind::read, 2,
                                       ir::LinForm::constant(0),
                                       ir::LinForm::constant(1), "1");
  bad.kind = ir::GroupKind::barrier;
  d.groups[1] = bad;
  const PassContext ctx = run_passes(std::move(d));
  EXPECT_FALSE(ctx.barriers_uniform);
  EXPECT_TRUE(has_rule(ctx, Rule::barrier_divergence));
}

TEST(BarrierDivergence, LanePieceOutsideWarpIsFlagged) {
  ir::KernelDesc d = tiny_desc();
  d.groups[2].pattern.pieces[0].lane_hi = 5;  // warp has lanes 0..1
  const PassContext ctx = run_passes(std::move(d));
  EXPECT_FALSE(ctx.barriers_uniform);
  EXPECT_TRUE(has_rule(ctx, Rule::lane_out_of_range));
}

TEST(BarrierDivergence, OverlappingLanePiecesAreFlagged) {
  ir::KernelDesc d = tiny_desc();
  d.groups[2].pattern.pieces.push_back(d.groups[2].pattern.pieces[0]);
  const PassContext ctx = run_passes(std::move(d));
  EXPECT_FALSE(ctx.barriers_uniform);
  EXPECT_TRUE(has_rule(ctx, Rule::duplicate_lane));
}

TEST(BarrierDivergence, WindowAdmittingTooManyLanesIsFlagged) {
  ir::KernelDesc d = tiny_desc();
  d.groups[2] = ir::window_group("gather", ir::GroupKind::read, 7,
                                 ir::LinForm::constant(4),
                                 ir::LinForm::constant(1), "1");
  const PassContext ctx = run_passes(std::move(d));
  EXPECT_FALSE(ctx.barriers_uniform);
  EXPECT_TRUE(has_rule(ctx, Rule::lane_out_of_range));
}

TEST(BarrierDivergence, DanglingSymbolReferenceIsFlagged) {
  ir::KernelDesc d = tiny_desc();
  d.groups[2].pattern.pieces[0].base = ir::LinForm::sym(9);
  const PassContext ctx = run_passes(std::move(d));
  EXPECT_FALSE(ctx.barriers_uniform);
  EXPECT_TRUE(has_rule(ctx, Rule::barrier_divergence));
}

TEST(BarrierDivergence, EmptySymbolRangeIsFlagged) {
  ir::KernelDesc d = tiny_desc();
  (void)d.add_symbol("k", ir::SymRole::parameter, 5, 2);
  const PassContext ctx = run_passes(std::move(d));
  EXPECT_FALSE(ctx.barriers_uniform);
  EXPECT_TRUE(has_rule(ctx, Rule::barrier_divergence));
}

TEST(BarrierDivergence, HalfDeclaredWarpShiftExtentIsFlagged) {
  ir::KernelDesc d = tiny_desc();
  const int ws = d.add_symbol("ws", ir::SymRole::warp_shift, 0, 0);
  d.symbols[static_cast<std::size_t>(ws)].max_form =
      ir::LinForm::constant(4);  // step_form left zero
  const PassContext ctx = run_passes(std::move(d));
  EXPECT_FALSE(ctx.barriers_uniform);
  EXPECT_TRUE(has_rule(ctx, Rule::barrier_divergence));
}

// --- def-use pass --------------------------------------------------------

TEST(DefUse, ReadPastTheBudgetIsOutOfBounds) {
  ir::KernelDesc d = tiny_desc();
  d.groups[2].pattern.pieces[0].base = ir::LinForm::constant(7);
  const PassContext ctx = run_passes(std::move(d));
  EXPECT_FALSE(ctx.defuse_clean);
  EXPECT_TRUE(has_rule(ctx, Rule::out_of_bounds));
}

TEST(DefUse, ReadOutsideTheFillRegionIsUninitialized) {
  ir::KernelDesc d = tiny_desc();
  d.groups[0] = ir::with_region(ir::fill_group("stage", "1"),
                                ir::LinForm::constant(0),
                                ir::LinForm::constant(0));  // one word only
  const PassContext ctx = run_passes(std::move(d));
  EXPECT_FALSE(ctx.defuse_clean);
  EXPECT_TRUE(has_rule(ctx, Rule::uninitialized_read));
}

TEST(DefUse, ContiguousWriteEarnsCoverageCredit) {
  ir::KernelDesc d = tiny_desc();
  d.groups[0] = ir::affine_group("store", ir::GroupKind::write, 2,
                                 ir::LinForm::constant(0),
                                 ir::LinForm::constant(1), "1");
  const int k = d.add_symbol("k", ir::SymRole::parameter, 0, 2);
  d.groups[0].pattern.pieces[0].base = ir::LinForm::sym(k, 2);
  // Lane stride 1 (2 lanes) x parameter step 2 (3 values) tiles [0, 7]:
  // every generator step fits inside the accumulated span.
  d.groups[2].pattern.pieces[0].base = ir::LinForm::constant(0);
  d.groups[2].pattern.pieces[0].stride = ir::LinForm::constant(1);
  const PassContext ctx = run_passes(std::move(d));
  EXPECT_TRUE(ctx.defuse_clean) << ctx.findings.size();
}

TEST(DefUse, NonContiguousWriteEarnsNoCredit) {
  ir::KernelDesc d = tiny_desc();
  // Two lanes at stride 4 leave holes: {0, 4} covers nothing contiguous,
  // so the later full-tile read must be flagged.
  d.groups[0] = ir::affine_group("scatter", ir::GroupKind::write, 2,
                                 ir::LinForm::constant(0),
                                 ir::LinForm::constant(4), "1");
  const PassContext ctx = run_passes(std::move(d));
  EXPECT_FALSE(ctx.defuse_clean);
  EXPECT_TRUE(has_rule(ctx, Rule::uninitialized_read));
}

TEST(DefUse, LeadingReadSeedsTheCallerStagedPrecondition) {
  ir::KernelDesc d = tiny_desc();
  d.groups.erase(d.groups.begin());  // drop the fill: read leads
  const PassContext ctx = run_passes(std::move(d));
  EXPECT_TRUE(ctx.defuse_clean);
  EXPECT_TRUE(ctx.defuse_seeded);
  // The seed is visible in the findings as a note, not silent.
  EXPECT_TRUE(has_rule(ctx, Rule::uninitialized_read));
  for (const Diagnostic& diag : ctx.findings) {
    EXPECT_EQ(diag.severity, Severity::note);
  }
}

TEST(DefUse, MaskedGroupSkipsTheUpperBoundCheck) {
  ir::KernelDesc d = tiny_desc();
  ir::StepGroup store = ir::affine_group("edge", ir::GroupKind::write, 2,
                                         ir::LinForm::constant(6),
                                         ir::LinForm::constant(1), "1");
  store.masked = true;  // kernel clamps the straggler lane at the edge
  d.groups.insert(d.groups.begin() + 2, store);
  ir::KernelDesc unmasked = d;
  unmasked.groups[2].masked = false;
  unmasked.groups[2].pattern.pieces[0].base = ir::LinForm::constant(7);
  EXPECT_TRUE(run_passes(std::move(d)).defuse_clean);
  EXPECT_FALSE(run_passes(std::move(unmasked)).defuse_clean);
}

// --- eval_extent ---------------------------------------------------------

TEST(EvalExtent, WarpShiftWidensToItsDeclaredValueSet) {
  ir::KernelDesc d;
  d.kernel = "extent";
  d.w = 4;
  d.b = 16;
  const int e = d.add_symbol("E", ir::SymRole::parameter, 3, 3);
  const int ws = d.add_symbol("ws", ir::SymRole::warp_shift, 0, 0);
  d.symbols[static_cast<std::size_t>(ws)].max_form =
      ir::LinForm::sym(e, 4);  // {0, 4, 8, 12} at E = 3 -> max 12
  d.symbols[static_cast<std::size_t>(ws)].step_form =
      ir::LinForm::constant(4);

  // The conflict domain pins the shift to its [lo, hi] = [0, 0] range...
  const auto pinned = analyze::symbolic::eval(ir::LinForm::sym(ws), d);
  EXPECT_EQ(pinned.lo, 0);
  EXPECT_EQ(pinned.hi, 0);
  // ...while the footprint domain widens it to the declared extent with
  // the step congruence.
  const auto wide = analyze::symbolic::eval_extent(ir::LinForm::sym(ws), d);
  EXPECT_EQ(wide.lo, 0);
  EXPECT_EQ(wide.hi, 12);
  EXPECT_EQ(wide.mod, 4u);
  EXPECT_EQ(wide.rem, 0);
  // A pinned-zero shift (no declared extent) keeps the pinned range.
  const int fixed = d.add_symbol("ws0", ir::SymRole::warp_shift, 0, 0);
  const auto still =
      analyze::symbolic::eval_extent(ir::LinForm::sym(fixed), d);
  EXPECT_EQ(still.hi, 0);
}

// --- conflict-bound pass + whole-engine sweep ----------------------------

TEST(VerifySweep, EveryEngineProvesAtSampledWidths) {
  analyze::passes::VerifyOptions opts;
  opts.ws = {2, 4, 8};
  opts.e_min = 1;
  opts.e_max = 64;
  opts.differential = false;  // covered by its own test below
  const auto report = analyze::passes::run_verify(
      analyze::symbolic::all_engines(), opts);
  for (const auto& shape : report.shapes) {
    EXPECT_TRUE(shape.ok) << shape.engine << " w=" << shape.w;
    EXPECT_TRUE(shape.barriers_uniform) << shape.engine;
    EXPECT_TRUE(shape.defuse_clean) << shape.engine;
    EXPECT_TRUE(shape.bounds_proved) << shape.engine;
  }
  EXPECT_TRUE(report.proved);
  EXPECT_EQ(report.shapes.size(),
            analyze::symbolic::all_engines().size() * 3);
}

TEST(VerifySweep, BreakdownRowsCoverTheNonCoprimeRegimes) {
  analyze::passes::VerifyOptions opts;
  opts.ws = {8};
  opts.differential = false;
  const auto report = analyze::passes::run_verify({"pairwise"}, opts);
  // w = 8 has non-coprime E in {4, 6}: both rows must be present, typed
  // to the regime taxonomy, and internally consistent.
  ASSERT_EQ(report.breakdown.size(), 2u);
  const auto& pow2 = report.breakdown[0];
  EXPECT_EQ(pow2.E, 4u);
  EXPECT_EQ(pow2.gcd, 4u);
  EXPECT_EQ(pow2.regime, "power_of_two");
  const auto& shared = report.breakdown[1];
  EXPECT_EQ(shared.E, 6u);
  EXPECT_EQ(shared.gcd, 2u);
  EXPECT_EQ(shared.regime, "shared_factor");
  for (const auto& row : report.breakdown) {
    EXPECT_GT(row.promised, 0u);
    EXPECT_GT(row.step_bound, 0u);
    EXPECT_EQ(row.breaks_down, row.attained < row.promised);
  }
}

TEST(VerifySweep, DifferentialGridBracketsEveryReplay) {
  analyze::passes::VerifyOptions opts;
  opts.ws = {2, 4};
  opts.e_max = 8;
  const auto report =
      analyze::passes::run_verify({"pairwise", "shearsort"}, opts);
  EXPECT_TRUE(report.differential_ok);
  // 2 widths x 4 E x 2 layouts per engine.
  EXPECT_EQ(report.differential.size(), 2 * 16u);
  for (const auto& cell : report.differential) {
    EXPECT_TRUE(cell.ok) << cell.engine << " w=" << cell.w
                         << " E=" << cell.E;
    EXPECT_EQ(cell.violations, 0u);
  }
}

TEST(VerifySweep, DifferentialRunsEveryRunnableRegistryEngine) {
  analyze::passes::VerifyOptions opts;
  opts.ws = {2, 4};
  opts.e_max = 8;
  const auto report =
      analyze::passes::run_verify(analyze::symbolic::all_engines(), opts);
  EXPECT_TRUE(report.differential_ok);
  // pairwise, multiway, radix, shearsort: 2 widths x 4 E x 2 layouts each;
  // bitonic only at its fixed E = 2.  The describe-only engines run
  // inside pairwise.
  EXPECT_EQ(report.differential.size(), 4 * 16u + 4u);
}

TEST(VerifySweep, ReportDigestIsDeterministic) {
  analyze::passes::VerifyOptions opts;
  opts.ws = {4};
  opts.e_max = 16;
  opts.differential = false;
  const auto a = analyze::passes::run_verify({"bitonic"}, opts);
  const auto b = analyze::passes::run_verify({"bitonic"}, opts);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_NE(a.digest, 0u);
}

}  // namespace
}  // namespace wcm
