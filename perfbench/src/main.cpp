// perfbench — the repository benchmark (README.md in this directory).
//
//   perfbench --workload sort_paper|campaign_grid|serve_mixed --seed n
//             --seconds s --trace 0|1 --wcmd path
//
// Runs one workload for about `s` seconds on inputs made from the seed,
// checks every output and prints, as its last line, one JSON object with
// the check counts and every metric it measured.  --trace 1 adds the
// per-layer metrics and, before that line, the span table.  Exit codes:
// 0 ran (the line's "failed" counts failed checks), 1 the run itself
// failed, 2 usage error.

#include <charconv>
#include <cstdint>
#include <exception>
#include <iostream>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (text.empty() || ec != std::errc() || ptr != text.data() + text.size()) {
    throw std::invalid_argument("invalid value '" + text + "' for " + flag);
  }
  return v;
}

struct Args {
  Options opts;
  std::string wcmd;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("flag " + flag + " requires a value");
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.opts.workload = value;
    } else if (flag == "--seed") {
      a.opts.seed = parse_u64(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_u64(flag, value);
      if (s < 1 || s > 60) {
        throw std::invalid_argument("--seconds must be in 1..60");
      }
      a.opts.seconds = static_cast<double>(s);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
      a.opts.trace = value == "1";
    } else if (flag == "--wcmd") {
      a.wcmd = value;
    } else {
      throw std::invalid_argument("unknown flag '" + flag + "'");
    }
  }
  if (!have_seed || !have_seconds) {
    throw std::invalid_argument("--seed and --seconds are required");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: usage error: " << e.what() << "\n";
    return 2;
  }
  try {
    tracer().set_enabled(args.opts.trace);
    Result result;
    if (args.opts.workload == "sort_paper") {
      run_sort_paper(args.opts, result);
    } else if (args.opts.workload == "campaign_grid") {
      run_campaign_grid(args.opts, result);
    } else if (args.opts.workload == "serve_mixed") {
      if (args.wcmd.empty()) {
        throw std::invalid_argument("serve_mixed needs --wcmd");
      }
      run_serve_mixed(args.opts, args.wcmd, result);
    } else {
      std::cerr << "perfbench: usage error: unknown workload '"
                << args.opts.workload << "'\n";
      return 2;
    }
    result.set("error_ratio",
               result.attempted() == 0
                   ? 0.0
                   : static_cast<double>(result.failed()) /
                         static_cast<double>(result.attempted()),
               result.attempted());
    if (args.opts.trace) {
      tracer().print_table(std::cout);
    }
    result.print(std::cout);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: run failed: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
