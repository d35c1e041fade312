// sort_paper: the paper's Figure 4/5 measurement.  One thread runs whole
// simulated pairwise merge sorts at Thrust's parameters on the Quadro
// M4000 (E=15, b=512: the small-E regime of Theorem 3) and the RTX 2080 Ti
// (E=17, b=256: the large-E regime of Theorem 9), each on a random and on
// the constructed worst-case permutation.  The generator runs only in
// set-up; nearly all host time is in dmm/gpusim/mergepath/sort.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/series.hpp"
#include "core/generator.hpp"
#include "gpusim/device.hpp"
#include "gpusim/trace.hpp"
#include "mergepath/partition.hpp"
#include "sort/pairwise_sort.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"
#include "workload/inputs.hpp"

namespace perfbench {

namespace {

using wcm::dmm::word;
using wcm::sort::SortReport;

/// n = bE * 2^k: 2^k tiles, k global merge rounds.
constexpr unsigned kSortK = 4;
/// Trace capture size: a trace costs ~0.5 KB per step.
constexpr unsigned kCaptureK = 1;
/// Set-up runs this many times before each cycle, so its samples span the
/// run and a short episode of host load does not decide their median.
constexpr int kSetupRepsPerCycle = 3;
constexpr int kMinCycles = 3;

struct Case {
  wcm::gpusim::Device dev;
  wcm::sort::SortConfig cfg;
  bool worst = false;
  std::vector<word> keys;
};

std::vector<Case> make_cases() {
  std::vector<Case> cases;
  for (const auto& dev :
       {wcm::gpusim::quadro_m4000(), wcm::gpusim::rtx_2080ti()}) {
    for (const bool worst : {false, true}) {
      cases.push_back({dev, wcm::sort::thrust_params(dev), worst, {}});
    }
  }
  return cases;
}

/// Build every case's input at size bE * 2^k; returns the seconds the
/// worst-case generator took.
double build_inputs(std::vector<Case>& cases, std::uint64_t seed, unsigned k) {
  double generator_s = 0.0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    Case& c = cases[i];
    const std::size_t n = c.cfg.tile() << k;
    const std::uint64_t stream = wcm::fork_seed(seed, i);
    if (c.worst) {
      wcm::core::AttackOptions attack;
      attack.tile_shuffle_seed = stream | 1;  // 0 would mean "no shuffle"
      const auto span = tracer().span("core.worst_case_input");
      const auto t0 = Clock::now();
      c.keys = wcm::core::worst_case_input(n, c.cfg, attack);
      generator_s += seconds_since(t0);
    } else {
      const auto span = tracer().span("workload.random_permutation");
      c.keys = wcm::workload::random_permutation(n, stream);
    }
  }
  return generator_s;
}

bool is_iota(const std::vector<word>& v) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] != static_cast<word>(i)) {
      return false;
    }
  }
  return true;
}

bool same_time(const wcm::gpusim::KernelTime& a,
               const wcm::gpusim::KernelTime& b) {
  return a.seconds == b.seconds && a.t_bandwidth == b.t_bandwidth &&
         a.t_latency == b.t_latency && a.t_shared == b.t_shared &&
         a.t_compute == b.t_compute && a.t_overhead == b.t_overhead;
}

bool same_stats(const wcm::dmm::MachineStats& a,
                const wcm::dmm::MachineStats& b) {
  return a.steps == b.steps && a.requests == b.requests &&
         a.serialization_cycles == b.serialization_cycles &&
         a.replays == b.replays &&
         a.conflicting_accesses == b.conflicting_accesses &&
         a.max_bank_degree == b.max_bank_degree;
}

std::string label(const Case& c) {
  return c.dev.name + (c.worst ? " worst-case" : " random") +
         " n=" + std::to_string(c.keys.size());
}

/// Partition every global round's adjacent runs as the sort does.  The
/// runs of round r are the input's sorted chunks of bE * 2^(r-1) keys,
/// rebuilt here off the clock.  Returns {seconds, search steps}.
std::pair<double, std::size_t> partition_probe(const Case& c) {
  const std::size_t tile = c.cfg.tile();
  const std::size_t n = c.keys.size();
  double seconds = 0.0;
  std::size_t steps = 0;
  std::vector<word> runs;
  for (std::size_t run = tile; run < n; run *= 2) {
    runs = c.keys;
    for (std::size_t base = 0; base < n; base += run) {
      std::sort(runs.begin() + static_cast<std::ptrdiff_t>(base),
                runs.begin() + static_cast<std::ptrdiff_t>(base + run));
    }
    const std::span<const word> all(runs);
    const auto span = tracer().span("mergepath.partition_tiles");
    const auto t0 = Clock::now();
    for (std::size_t base = 0; base < n; base += 2 * run) {
      steps += wcm::mergepath::partition_tiles(all.subspan(base, run),
                                               all.subspan(base + run, run),
                                               tile)
                   .search_steps;
    }
    seconds += seconds_since(t0);
  }
  return {seconds, steps};
}

}  // namespace

void run_sort_paper(const Options& opts, Result& result) {
  std::vector<Case> cases = make_cases();

  // Set-up: build the four inputs; the same seed rebuilds the same keys.
  std::vector<double> setup_s;
  std::vector<double> generator_s;
  const auto set_up = [&] {
    for (int rep = 0; rep < kSetupRepsPerCycle; ++rep) {
      const auto t0 = Clock::now();
      generator_s.push_back(build_inputs(cases, opts.seed, kSortK));
      setup_s.push_back(seconds_since(t0));
    }
  };
  set_up();
  for (const Case& c : cases) {
    result.check(wcm::workload::is_permutation_of_iota(c.keys),
                 label(c) + ": input is a permutation of 0..n-1");
  }

  // Measurement: cycles of the four sorts.  A traced run alternates traced
  // and untraced cycles so the span overhead can be read off.
  const bool traced_run = opts.trace;
  std::vector<SortReport> first(cases.size());
  std::vector<double> cycle_s[2];   // [traced?] summed sort seconds
  std::vector<double> recost_s[2];  // [traced?] summed recost seconds
  // [traced?][case] seconds of each sort
  std::vector<std::vector<double>> case_s[2];
  case_s[0].resize(cases.size());
  case_s[1].resize(cases.size());
  std::vector<word> out;
  const auto start = Clock::now();
  for (int cycle = 0;
       cycle < kMinCycles || seconds_since(start) < opts.seconds; ++cycle) {
    const bool traced = traced_run && cycle % 2 == 0;
    tracer().set_enabled(traced);
    if (cycle > 0) {
      set_up();
    }
    double sort_sum = 0.0;
    double recost_sum = 0.0;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Case& c = cases[i];
      SortReport report;
      {
        const auto span = tracer().span("sort.pairwise_merge_sort");
        const auto t0 = Clock::now();
        report = wcm::sort::pairwise_merge_sort(
            c.keys, c.cfg, c.dev, wcm::sort::MergeSortLibrary::thrust, &out);
        const double seconds = seconds_since(t0);
        sort_sum += seconds;
        case_s[traced ? 1 : 0][i].push_back(seconds);
      }
      SortReport priced;
      {
        const auto span = tracer().span("sort.recost");
        const auto t0 = Clock::now();
        priced = wcm::sort::recost(report, c.dev,
                                   wcm::sort::MergeSortLibrary::thrust);
        recost_sum += seconds_since(t0);
      }
      result.check(is_iota(out), label(c) + ": output is 0..n-1");
      result.check(same_time(priced.total_time, report.total_time),
                   label(c) + ": recost reproduces total_time");
      if (cycle == 0) {
        first[i] = std::move(report);
      } else {
        result.check(
            same_stats(report.totals.shared, first[i].totals.shared) &&
                report.totals.binary_search_steps ==
                    first[i].totals.binary_search_steps,
            label(c) + ": simulated counts repeat");
      }
    }
    cycle_s[traced ? 1 : 0].push_back(sort_sum);
    recost_s[traced ? 1 : 0].push_back(recost_sum);
  }
  tracer().set_enabled(traced_run);
  result.set("setup_s", median(setup_s), setup_s.size());

  const std::vector<double>& timed = cycle_s[traced_run ? 1 : 0];
  const double cycle = median(timed);
  double elems = 0.0;
  for (const Case& c : cases) {
    elems += static_cast<double>(c.keys.size());
  }
  const double sorts = static_cast<double>(cases.size());
  result.set("ops_per_s", sorts / cycle, timed.size());
  // One sort's latency: the median over the cases of each case's median.
  std::vector<double> case_p50;
  for (const auto& seconds : case_s[traced_run ? 1 : 0]) {
    case_p50.push_back(median(seconds));
  }
  result.set("p50_ms", 1e3 * median(case_p50), timed.size() * cases.size());
  result.set("sim_elems_per_s", elems / cycle, timed.size());
  result.set("peak_rss_mb", peak_rss_mb(getpid()), 1);

  // Simulated counts: a host-speed-only change leaves all of them equal.
  wcm::gpusim::KernelStats worst_totals;
  double shared_steps = 0.0;
  double replays = 0.0;
  double search_steps = 0.0;
  double slowdown = 0.0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& t = first[i].totals;
    shared_steps += static_cast<double>(t.shared.steps);
    replays += static_cast<double>(t.shared.replays);
    search_steps += static_cast<double>(t.binary_search_steps);
    if (cases[i].worst) {
      worst_totals += t;
      slowdown += wcm::analysis::slowdown_percent(first[i - 1].seconds(),
                                                  first[i].seconds());
    }
  }
  result.set("sim.shared_steps", shared_steps, 1);
  result.set("sim.replays", replays, 1);
  result.set("sim.binary_search_steps", search_steps, 1);
  result.set("sim.beta2", wcm::gpusim::beta2(worst_totals), 1);
  result.set("sim.modeled_slowdown_pct", slowdown / 2.0, 1);
  if (!traced_run) {
    return;
  }

  // ---- traced run: per-layer decomposition ---------------------------------
  const double sort_s = cycle;
  const double recost = median(recost_s[1]);
  result.set("core.worst_case_input_s", median(generator_s),
             generator_s.size());
  result.set("sort.pairwise_merge_sort_s", sort_s, timed.size());
  result.set("gpusim.recost_s", recost, recost_s[1].size());
  result.set("trace_overhead_pct",
             100.0 * (cycle - median(cycle_s[0])) / median(cycle_s[0]),
             timed.size() + cycle_s[0].size());

  // Merge Path partition of every round, from outside the sort.
  double partition_s = 0.0;
  std::size_t probe_steps = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto [seconds, steps] = partition_probe(cases[i]);
    partition_s += seconds;
    probe_steps += steps;
    result.check(steps == first[i].totals.binary_search_steps,
                 label(cases[i]) +
                     ": partition search steps equal the report's");
  }
  result.set("mergepath.partition_tiles_s", partition_s, cases.size());
  result.set("mergepath.search_steps", static_cast<double>(probe_steps), 1);

  // Capture each sort's access stream at a small size and replay it
  // through the DMM; the per-step cost prices the full-size sorts.
  std::vector<Case> small = make_cases();
  build_inputs(small, opts.seed, kCaptureK);
  double replay_s = 0.0;
  std::size_t replay_steps = 0;
  for (const Case& c : small) {
    wcm::gpusim::TraceRecorder recorder(c.cfg.w);
    wcm::sort::SortConfig cfg = c.cfg;
    cfg.trace_sink = &recorder;
    const SortReport report = wcm::sort::pairwise_merge_sort(
        c.keys, cfg, c.dev, wcm::sort::MergeSortLibrary::thrust);
    const wcm::gpusim::Trace trace = recorder.take();
    const wcm::gpusim::SharedLayout layout{cfg.w, cfg.padding, cfg.layout};
    wcm::dmm::MachineStats replayed;
    {
      const auto span = tracer().span("gpusim.replay_stats");
      const auto t0 = Clock::now();
      replayed = wcm::gpusim::replay_stats(trace, layout);
      replay_s += seconds_since(t0);
    }
    replay_steps += replayed.steps;
    result.check(same_stats(replayed, report.totals.shared),
                 label(c) + ": replayed trace equals totals.shared");
  }
  const double ns_per_step = 1e9 * replay_s / static_cast<double>(replay_steps);
  const double replay_est = ns_per_step * 1e-9 * shared_steps;
  result.set("dmm.steps", static_cast<double>(replay_steps), 1);
  result.set("dmm.ns_per_step", ns_per_step, small.size());
  result.set("gpusim.replay_s", replay_est, small.size());
  result.set("sort.other_s", sort_s - partition_s - replay_est - recost, 1);
}

}  // namespace perfbench
