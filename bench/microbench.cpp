// Microbenchmarks (google-benchmark): host-side throughput of the
// library's building blocks — the constructions, the generator, merge
// path, the DMM step analyzer, and the simulator itself.  These measure
// *this library's* code on the host CPU (the figure benches report modeled
// GPU time instead).

#include <benchmark/benchmark.h>

#include "core/generator.hpp"
#include "core/warp_construction.hpp"
#include "dmm/access.hpp"
#include "dmm_reference.hpp"
#include "gpusim/shared_memory.hpp"
#include "mergepath/partition.hpp"
#include "sort/cpu_reference.hpp"
#include "sort/pairwise_sort.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "workload/inputs.hpp"
#include "workload/inversions.hpp"

namespace {

using namespace wcm;

void BM_WarpConstructionSmallE(benchmark::State& state) {
  const u32 e = static_cast<u32>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::worst_case_warp(32, e));
  }
}
BENCHMARK(BM_WarpConstructionSmallE)->Arg(5)->Arg(15);

void BM_WarpConstructionLargeE(benchmark::State& state) {
  const u32 e = static_cast<u32>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::worst_case_warp(32, e));
  }
}
BENCHMARK(BM_WarpConstructionLargeE)->Arg(17)->Arg(31);

void BM_WorstCaseGenerator(benchmark::State& state) {
  const auto cfg = sort::params_15_512();
  const std::size_t n = cfg.tile() << static_cast<u32>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::worst_case_input(n, cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_WorstCaseGenerator)->Arg(1)->Arg(4)->Arg(7);

/// The seeded generator of `wcmgen generate` and `wcmd`'s generate, with
/// its inversion count taken during construction.
void BM_WorstCaseGeneratorCounted(benchmark::State& state) {
  const auto cfg = sort::params_15_512();
  const std::size_t n = cfg.tile() << static_cast<u32>(state.range(0));
  core::AttackOptions opts;
  opts.tile_shuffle_seed = 1;
  for (auto _ : state) {
    u64 inversions = 0;
    benchmark::DoNotOptimize(core::worst_case_input(n, cfg, opts, &inversions));
    benchmark::DoNotOptimize(inversions);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_WorstCaseGeneratorCounted)->Arg(1)->Arg(4)->Arg(7);

/// The general merge count on BM_WorstCaseGeneratorCounted's output: the
/// work the construction count replaces.
void BM_CountInversions(benchmark::State& state) {
  const auto cfg = sort::params_15_512();
  const std::size_t n = cfg.tile() << static_cast<u32>(state.range(0));
  core::AttackOptions opts;
  opts.tile_shuffle_seed = 1;
  const auto input = core::worst_case_input(n, cfg, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::count_inversions(input));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CountInversions)->Arg(1)->Arg(4)->Arg(7);

void BM_MergePathPartition(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto a = workload::sorted_input(n);
  auto b = workload::sorted_input(n);
  for (auto& x : b) {
    x += 1;  // interleave
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mergepath::partition_tiles(a, b, n / 64));
  }
}
BENCHMARK(BM_MergePathPartition)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_DmmAnalyzeStep(benchmark::State& state) {
  // A 32-lane step with a mid-grade conflict pattern: 4-way conflicts in
  // each of banks 0..7.
  std::vector<dmm::Request> step;
  for (std::size_t lane = 0; lane < 32; ++lane) {
    step.push_back({lane, (lane % 4) * 32 + lane / 4, dmm::Op::read, 0});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dmm::analyze_step(step, 32));
  }
}
BENCHMARK(BM_DmmAnalyzeStep);

/// Step shapes for the analyzer variants below; mid_grade is the step of
/// BM_DmmAnalyzeStep above.
enum class StepCase { mid_grade, conflict_free, single_bank, broadcast, w17 };

struct CaseStep {
  std::vector<dmm::Request> requests;
  std::size_t banks = 32;
};

CaseStep make_step(StepCase c) {
  CaseStep s;
  const std::size_t lanes = c == StepCase::w17 ? 17 : 32;
  s.banks = lanes;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    std::size_t addr = 0;
    switch (c) {
      case StepCase::mid_grade:  // 4-way conflicts in banks 0..7
        addr = (lane % 4) * 32 + lane / 4;
        break;
      case StepCase::conflict_free:
        addr = lane;
        break;
      case StepCase::single_bank:  // 32 distinct addresses, all in bank 0
        addr = lane * 32;
        break;
      case StepCase::broadcast:  // every lane reads one address
        addr = 7;
        break;
      case StepCase::w17:  // non-power-of-two banks, 4-way conflicts
        addr = (lane % 4) * 17 + lane;
        break;
    }
    s.requests.push_back({lane, addr, dmm::Op::read, 0});
  }
  return s;
}

// Production analyzer on each step shape.
void BM_DmmAnalyzeStep(benchmark::State& state, StepCase c) {
  const CaseStep s = make_step(c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dmm::analyze_step(s.requests, s.banks));
  }
}
BENCHMARK_CAPTURE(BM_DmmAnalyzeStep, conflict_free, StepCase::conflict_free);
BENCHMARK_CAPTURE(BM_DmmAnalyzeStep, single_bank, StepCase::single_bank);
BENCHMARK_CAPTURE(BM_DmmAnalyzeStep, broadcast, StepCase::broadcast);
BENCHMARK_CAPTURE(BM_DmmAnalyzeStep, w17, StepCase::w17);

// The tests' sort-based reference oracle on the same shapes: the ratio to
// the matching BM_DmmAnalyzeStep row is the production analyzer's speedup.
void BM_DmmAnalyzeStepReference(benchmark::State& state, StepCase c) {
  const CaseStep s = make_step(c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dmm::reference::analyze_step(s.requests, s.banks));
  }
}
BENCHMARK_CAPTURE(BM_DmmAnalyzeStepReference, mid_grade, StepCase::mid_grade);
BENCHMARK_CAPTURE(BM_DmmAnalyzeStepReference, conflict_free,
                  StepCase::conflict_free);
BENCHMARK_CAPTURE(BM_DmmAnalyzeStepReference, single_bank,
                  StepCase::single_bank);
BENCHMARK_CAPTURE(BM_DmmAnalyzeStepReference, broadcast, StepCase::broadcast);
BENCHMARK_CAPTURE(BM_DmmAnalyzeStepReference, w17, StepCase::w17);

/// The 32 lanes of one warp step: conflict_free (lane l at address l) or
/// worst_case (lane l at 32 l: 32 distinct addresses, all in bank 0).
std::vector<gpusim::LaneWrite> warp_pattern(bool worst_case) {
  std::vector<gpusim::LaneWrite> lanes;
  for (u32 lane = 0; lane < 32; ++lane) {
    lanes.push_back({lane, worst_case ? std::size_t{32} * lane : lane,
                     static_cast<dmm::word>(lane)});
  }
  return lanes;
}

// One warp-wide access through SharedMemory: bounds checks, the physical
// address map, the value gather or scatter and the step's pricing.
void BM_SharedMemoryWarpRead(benchmark::State& state, bool worst_case) {
  gpusim::SharedMemory shm(32, 32 * 32);
  std::vector<gpusim::LaneRead> reads;
  for (const gpusim::LaneWrite& l : warp_pattern(worst_case)) {
    reads.push_back({l.lane, l.addr});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(shm.warp_read(reads).data());
  }
}
BENCHMARK_CAPTURE(BM_SharedMemoryWarpRead, conflict_free, false);
BENCHMARK_CAPTURE(BM_SharedMemoryWarpRead, worst_case, true);

void BM_SharedMemoryWarpWrite(benchmark::State& state, bool worst_case) {
  gpusim::SharedMemory shm(32, 32 * 32);
  const std::vector<gpusim::LaneWrite> writes = warp_pattern(worst_case);
  for (auto _ : state) {
    shm.warp_write(writes);
    benchmark::ClobberMemory();
  }
}
BENCHMARK_CAPTURE(BM_SharedMemoryWarpWrite, conflict_free, false);
BENCHMARK_CAPTURE(BM_SharedMemoryWarpWrite, worst_case, true);

void BM_SimulatedSort(benchmark::State& state) {
  const sort::SortConfig cfg{5, 64, 32};
  const std::size_t n = cfg.tile() << static_cast<u32>(state.range(0));
  const auto input = workload::random_permutation(n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sort::pairwise_merge_sort(input, cfg, gpusim::quadro_m4000()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
// Real time: the sort's blocks run on helper threads, whose CPU time the
// main thread's clock does not see.
BENCHMARK(BM_SimulatedSort)->Arg(1)->Arg(3)->UseRealTime();

// Telemetry overhead pins (ISSUE acceptance: disabled telemetry must cost
// <2% on the simulator microbenches).  BM_SimulatedSort above runs with
// every instrumented site compiled in but telemetry off — compare it
// against the pre-telemetry baseline for the <2% budget — and
// BM_SimulatedSortTelemetryOn quantifies the opt-in cost of metrics +
// tracing on the same workload.

void BM_TelemetrySpanDisabled(benchmark::State& state) {
  // The off-path of WCM_SPAN: one relaxed atomic load, no buffer touch.
  telemetry::set_tracing(false);
  for (auto _ : state) {
    WCM_SPAN("bm.span.off");
  }
}
BENCHMARK(BM_TelemetrySpanDisabled);

void BM_TelemetrySpanEnabled(benchmark::State& state) {
  telemetry::set_tracing(true);
  std::size_t since_drain = 0;
  for (auto _ : state) {
    {
      WCM_SPAN("bm.span.on");
    }
    if (++since_drain == 65536) {  // bound the buffer, off the clock
      since_drain = 0;
      state.PauseTiming();
      telemetry::reset_trace();
      state.ResumeTiming();
    }
  }
  telemetry::set_tracing(false);
  telemetry::reset_trace();
}
BENCHMARK(BM_TelemetrySpanEnabled);

void BM_TelemetryCounterAdd(benchmark::State& state) {
  // Hot path of an instrumented site that caches its handle.
  telemetry::set_enabled(true);
  auto& counter = telemetry::registry().counter("bm.counter");
  for (auto _ : state) {
    counter.add(1);
  }
  telemetry::set_enabled(false);
  telemetry::registry().reset();
}
BENCHMARK(BM_TelemetryCounterAdd);

void BM_TelemetryRegistryLookup(benchmark::State& state) {
  // Hot path of a site that re-looks-up by (name, labels) every time, the
  // pattern record_round_telemetry uses.
  telemetry::set_enabled(true);
  const telemetry::Labels labels = {{"engine", "pairwise"}, {"round", "r1"}};
  for (auto _ : state) {
    telemetry::registry().counter("bm.lookup", labels).add(1);
  }
  telemetry::set_enabled(false);
  telemetry::registry().reset();
}
BENCHMARK(BM_TelemetryRegistryLookup);

void BM_SimulatedSortTelemetryOn(benchmark::State& state) {
  telemetry::set_enabled(true);
  telemetry::set_tracing(true);
  const sort::SortConfig cfg{5, 64, 32};
  const std::size_t n = cfg.tile() << 1;
  const auto input = workload::random_permutation(n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sort::pairwise_merge_sort(input, cfg, gpusim::quadro_m4000()));
  }
  telemetry::set_tracing(false);
  telemetry::set_enabled(false);
  telemetry::reset_trace();
  telemetry::registry().reset();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimulatedSortTelemetryOn)->UseRealTime();

void BM_CpuReferenceSort(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto input = workload::random_permutation(n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sort::cpu_pairwise_merge_sort(input, 512));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CpuReferenceSort)->Arg(1 << 14)->Arg(1 << 18);

}  // namespace

BENCHMARK_MAIN();
