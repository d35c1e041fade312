// campaign_grid: one in-memory campaign through runtime::run_campaign with
// the cache off, on every worker the process may use.  Sixty cells of
// uneven size (pairwise E 5..15 x padding x input x k, plus multiway,
// bitonic and radix) run the same simulator as sort_paper, concurrently:
// that exposes per-step shared state and scheduler imbalance, which one
// thread cannot show.

#include <unistd.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "runtime/campaign.hpp"
#include "sort/bitonic.hpp"
#include "sort/multiway.hpp"
#include "sort/radix.hpp"
#include "workloads.hpp"
#include "workload/inputs.hpp"

namespace perfbench {

namespace {

/// Set-up is timed in batches long enough (~25 ms) that one batch's mean
/// per parse+expand is steady, a few batches before each campaign, so the
/// samples span the run and a short episode of host load does not decide
/// their median.
constexpr int kSetupBatchesPerRep = 3;
constexpr int kSetupRepsPerBatch = 100;
constexpr int kMinReps = 3;

/// The campaign's per-cell progress stream, timestamping each line: a line
/// is written when a cell's result is in.
class CompletionClock : public std::streambuf {
 public:
  explicit CompletionClock(Clock::time_point start) : start_(start) {}
  [[nodiscard]] const std::vector<double>& seconds() const noexcept {
    return seconds_;
  }

 protected:
  int_type overflow(int_type ch) override {
    if (ch == '\n') {
      seconds_.push_back(seconds_since(start_));
    }
    return traits_type::not_eof(ch);
  }

 private:
  Clock::time_point start_;
  std::vector<double> seconds_;
};

/// The grid; the seed is the campaign's root seed, from which every
/// cell's input seed is forked.
std::string grid_spec(std::uint64_t seed) {
  std::ostringstream os;
  os << R"({"name":"perfbench","device":"m4000","seed":)" << seed
     << R"(,"grid":[)"
     << R"({"engine":"pairwise","E":[5,7,9,11,13,15],"b":128,)"
     << R"("padding":[0,1],"input":["random","worst-case"],"k":[3,5]},)"
     << R"({"engine":"multiway","E":15,"b":128,"ways":4,)"
     << R"("input":["random","worst-case"],"k":[3,5]},)"
     << R"({"engine":"bitonic","E":15,"b":128,)"
     << R"("input":["random","worst-case"],"k":[3,5]},)"
     << R"({"engine":"radix","E":15,"b":128,"digit_bits":4,)"
     << R"("input":["random","worst-case"],"k":[3,5]}]})";
  return os.str();
}

/// Run the campaign; `completed`, when given, receives the seconds from
/// the call until each cell's result was in.
wcm::runtime::CampaignOutcome run(const wcm::runtime::CampaignSpec& spec,
                                  unsigned threads,
                                  std::vector<double>* completed = nullptr) {
  wcm::runtime::CampaignOptions options;
  options.threads = threads;
  options.use_cache = false;
  CompletionClock clock(Clock::now());
  std::ostream progress(&clock);
  if (completed != nullptr) {
    options.progress = &progress;
  }
  const auto span = tracer().span("runtime.run_campaign");
  auto outcome = wcm::runtime::run_campaign(spec, options);
  if (completed != nullptr) {
    *completed = clock.seconds();
  }
  return outcome;
}

/// Run one cell's engine directly on this thread, as the campaign does;
/// returns its host seconds.
double time_cell(const wcm::runtime::CampaignCell& cell,
                 const wcm::gpusim::Device& dev, Result& result) {
  using wcm::runtime::Engine;
  std::vector<wcm::dmm::word> input =
      wcm::workload::make_input(cell.input, cell.n, cell.config, cell.seed);
  wcm::sort::SortConfig cfg = cell.config;
  if (cell.engine == Engine::bitonic) {
    // The campaign launches bitonic with E = 2 on a power-of-two prefix.
    cfg.E = 2;
    std::size_t n2 = 1;
    while (n2 * 2 <= cell.n) {
      n2 *= 2;
    }
    input.resize(n2);
  }
  std::vector<wcm::dmm::word> out;
  const std::string name =
      std::string("sort.engine.") + wcm::runtime::to_string(cell.engine);
  const auto span = tracer().span(name.c_str());
  const auto t0 = Clock::now();
  switch (cell.engine) {
    case Engine::pairwise:
      (void)wcm::sort::pairwise_merge_sort(input, cfg, dev, cell.library,
                                           &out);
      break;
    case Engine::multiway:
      (void)wcm::sort::multiway_merge_sort(input, cfg, dev, cell.ways, &out);
      break;
    case Engine::radix:
      (void)wcm::sort::radix_sort(input, cfg, dev, cell.digit_bits, &out);
      break;
    case Engine::bitonic:
      (void)wcm::sort::bitonic_sort(input, cfg, dev, &out);
      break;
  }
  const double seconds = seconds_since(t0);
  result.check(out.size() == input.size() &&
                   std::is_sorted(out.begin(), out.end()),
               cell.label + ": direct engine output is sorted");
  return seconds;
}

}  // namespace

void run_campaign_grid(const Options& opts, Result& result) {
  const std::string text = grid_spec(opts.seed);

  // Set-up: parse and expand the spec in batches; per batch, the mean.
  std::vector<double> setup_s;
  std::vector<double> expand_s;
  wcm::runtime::CampaignSpec spec;
  std::vector<wcm::runtime::CampaignCell> cells;
  const auto set_up = [&] {
    for (int batch = 0; batch < kSetupBatchesPerRep; ++batch) {
      double expand = 0.0;
      const auto t0 = Clock::now();
      for (int rep = 0; rep < kSetupRepsPerBatch; ++rep) {
        {
          const auto span = tracer().span("runtime.parse_campaign_spec");
          spec = wcm::runtime::parse_campaign_spec(text);
        }
        const auto t1 = Clock::now();
        {
          const auto span = tracer().span("runtime.expand");
          cells = wcm::runtime::expand(spec);
        }
        expand += seconds_since(t1);
      }
      setup_s.push_back(seconds_since(t0) / kSetupRepsPerBatch);
      expand_s.push_back(expand / kSetupRepsPerBatch);
    }
  };

  // Measurement: whole campaigns on every worker.
  const unsigned workers = nproc();
  std::vector<double> wall_s;
  std::vector<double> cell_done_s;  // per campaign: median time to a result
  std::string aggregate;
  std::size_t quarantined = 0;
  const auto start = Clock::now();
  for (int rep = 0; rep < kMinReps || seconds_since(start) < opts.seconds;
       ++rep) {
    set_up();
    std::vector<double> completed;
    const auto t0 = Clock::now();
    const auto outcome = run(spec, workers, &completed);
    wall_s.push_back(seconds_since(t0));
    result.check(completed.size() == cells.size(),
                 "one progress line per cell");
    if (!completed.empty()) {
      cell_done_s.push_back(median(completed));
    }
    std::vector<std::string> failure(cells.size());
    for (const auto& q : outcome.quarantined) {
      failure[q.index] = ": quarantined: " + q.message;
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      result.check(failure[i].empty(), cells[i].label + failure[i]);
    }
    quarantined += outcome.quarantined.size();
    result.check(outcome.computed + outcome.quarantined.size() == cells.size(),
                 "every cell ran");
    if (rep == 0) {
      aggregate = outcome.json;
    } else {
      result.check(outcome.json == aggregate,
                   "aggregate repeats byte for byte");
    }
  }
  result.set("setup_s", median(setup_s), setup_s.size());
  const double wall = median(wall_s);
  const double n_cells = static_cast<double>(cells.size());
  result.set("ops_per_s", n_cells / wall, wall_s.size());
  result.set("cells_per_s", n_cells / wall, wall_s.size());
  if (!cell_done_s.empty()) {
    result.set("p50_ms", 1e3 * median(cell_done_s), cell_done_s.size());
  }
  result.set("peak_rss_mb", peak_rss_mb(getpid()), 1);
  result.set("runtime.quarantined", static_cast<double>(quarantined), 1);
  if (!opts.trace) {
    return;
  }

  // ---- traced run: per-layer decomposition ---------------------------------
  result.set("runtime.expand_s", median(expand_s), expand_s.size());

  // Overhead of the benchmark's spans: one more N-worker campaign untraced.
  tracer().set_enabled(false);
  const auto t_off = Clock::now();
  (void)run(spec, workers);
  const double untraced = seconds_since(t_off);
  tracer().set_enabled(true);
  result.set("trace_overhead_pct", 100.0 * (wall - untraced) / untraced,
             wall_s.size() + 1);

  const auto t1 = Clock::now();
  const auto serial = run(spec, 1);
  const double wall_1 = seconds_since(t1);
  result.check(serial.json == aggregate,
               "1-worker and N-worker aggregates are byte-identical");
  result.set("runtime.speedup_vs_1", wall_1 / wall, wall_s.size() + 1);

  // Each cell's engine call, timed directly on this thread: the slowest
  // cell bounds the campaign's wall time.
  std::vector<double> cell_s;
  std::map<std::string, double> engine_s;
  for (const auto& cell : cells) {
    const double s = time_cell(cell, spec.device, result);
    cell_s.push_back(s);
    engine_s[wcm::runtime::to_string(cell.engine)] += s;
  }
  double busy = 0.0;
  for (const double s : cell_s) {
    busy += s;
  }
  result.set("runtime.cell_p50_s", median(cell_s), cell_s.size());
  result.set("runtime.cell_max_s",
             *std::max_element(cell_s.begin(), cell_s.end()), cell_s.size());
  result.set("runtime.parallel_efficiency", busy / (workers * wall),
             cell_s.size());
  for (const auto& [engine, s] : engine_s) {
    result.set("sort.engine_s." + engine, s, 1);
  }
}

}  // namespace perfbench
