#include "analyze/analyzer.hpp"

#include <algorithm>
#include <iterator>
#include <ostream>
#include <string>

#include "analyze/memcheck.hpp"
#include "analyze/race.hpp"

namespace wcm::analyze {

std::size_t AnalysisReport::errors() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic& d) {
                      return d.severity == Severity::error;
                    }));
}

std::size_t AnalysisReport::warnings() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic& d) {
                      return d.severity == Severity::warning;
                    }));
}

AnalysisReport analyze_trace(const gpusim::Trace& trace,
                             const AnalyzeOptions& options) {
  AnalysisReport report;
  report.steps = trace.steps.size();
  report.access_steps = trace.access_steps();
  report.barriers = trace.barrier_count();

  auto mem = check_memory(trace);
  auto races = check_races(trace);

  // The DMM replay rejects exactly the structural findings of those two
  // passes (duplicate lanes, CREW stores); cross-check only clean traces.
  const bool replayable =
      std::none_of(mem.begin(), mem.end(),
                   [](const Diagnostic& d) {
                     return d.rule == Rule::duplicate_lane ||
                            d.rule == Rule::lane_out_of_range;
                   }) &&
      std::none_of(races.begin(), races.end(), [](const Diagnostic& d) {
        return d.rule == Rule::intra_step_crew;
      });

  report.diagnostics.reserve(mem.size() + races.size());
  std::move(mem.begin(), mem.end(), std::back_inserter(report.diagnostics));
  std::move(races.begin(), races.end(),
            std::back_inserter(report.diagnostics));

  if (options.cross_check && replayable) {
    StrideReport strides = check_strides(
        trace,
        gpusim::SharedLayout{trace.warp_size, options.pad, options.layout});
    report.affine_steps = strides.affine_steps;
    report.cross_checked = true;
    report.replayed = strides.measured;
    std::move(strides.diagnostics.begin(), strides.diagnostics.end(),
              std::back_inserter(report.diagnostics));
  }

  std::stable_sort(report.diagnostics.begin(), report.diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.step != b.step) {
                       return a.step < b.step;
                     }
                     return static_cast<int>(a.rule) <
                            static_cast<int>(b.rule);
                   });
  return report;
}

void render_text(std::ostream& os, const AnalysisReport& report,
                 const std::string& name) {
  for (const Diagnostic& d : report.diagnostics) {
    os << name << ": ";
    render_text(os, d);
  }
  os << name << ": " << report.errors() << " error(s), " << report.warnings()
     << " warning(s) over " << report.access_steps << " access step(s), "
     << report.barriers << " barrier(s)";
  if (report.cross_checked) {
    os << "; " << report.affine_steps << " affine step(s) cross-checked"
       << "; replayed serialization " << report.replayed.serialization
       << " cycle(s), " << report.replayed.replays << " replay(s) over "
       << report.replayed.requests << " access(es)";
  } else {
    os << "; stride cross-check skipped";
  }
  os << '\n';
}

void render_json(std::ostream& os, const AnalysisReport& report,
                 const std::string& name) {
  os << "{\"trace\":\"" << name << "\",\"steps\":" << report.steps
     << ",\"access_steps\":" << report.access_steps
     << ",\"barriers\":" << report.barriers
     << ",\"affine_steps\":" << report.affine_steps
     << ",\"cross_checked\":" << (report.cross_checked ? "true" : "false")
     << ",\"errors\":" << report.errors()
     << ",\"warnings\":" << report.warnings() << ",\"diagnostics\":[";
  for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
    if (i > 0) {
      os << ',';
    }
    render_json(os, report.diagnostics[i]);
  }
  os << "]}";
}

}  // namespace wcm::analyze
