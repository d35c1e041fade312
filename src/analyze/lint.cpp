#include "analyze/lint.hpp"

#include <fstream>
#include <ostream>

#include "util/error.hpp"

namespace wcm::analyze {

gpusim::Trace load_trace_file(const std::string& file) {
  std::ifstream is(file);
  if (!is) {
    throw io_error("cannot open trace file", file);
  }
  try {
    return gpusim::read_trace(is);
  } catch (const parse_error& e) {
    throw io_error(std::string("corrupt trace: ") + e.what(), file);
  }
}

int run_lint(const std::vector<std::string>& files,
             const LintOptions& options, std::ostream& out,
             std::ostream& err) {
  bool any_findings = false;
  bool any_bad_file = false;
  bool first_json = true;

  if (options.json) {
    out << "[";
  }
  for (const std::string& file : files) {
    gpusim::Trace trace;
    try {
      trace = load_trace_file(file);
    } catch (const error& e) {
      // Missing, unreadable or corrupt input is exit 3, whichever layer
      // rejected it.
      err << file << ": error: " << e.what() << '\n';
      any_bad_file = true;
      continue;
    }

    const AnalysisReport report = analyze_trace(trace, options.analysis);
    any_findings = any_findings || !report.clean();
    if (options.json) {
      if (!first_json) {
        out << ',';
      }
      first_json = false;
      render_json(out, report, file);
    } else {
      render_text(out, report, file);
    }
  }
  if (options.json) {
    out << "]\n";
  }

  if (any_bad_file) {
    return 3;
  }
  return any_findings ? 1 : 0;
}

}  // namespace wcm::analyze
