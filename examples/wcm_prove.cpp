// wcm-prove — standalone front end of the symbolic bank-conflict prover:
// derive, without executing any trace, per-step conflict-degree bounds for
// the simulated sort engines, valid for every parameter valuation in a
// declared range, and machine-check Theorem 3's beta_2 = E and Theorem 9's
// (E^2 + E + 2Er - r^2 - r)/2 aligned counts at the paper's constructions.
//
//   wcm-prove [--engine name|all] [--w n] [--b n] [--pad n]
//             [--layout linear|xor|rotation] [--E-min n] [--E-max n]
//             [--any-E] [--ways k] [--digit-bits n] [--json]
//             [--trace file.wcmt]
//
// With --trace (requires a single --engine), the recorded trace is also
// replayed through the DMM and every step is certified against the derived
// bound — the static/dynamic cross-check the differential fuzzer runs on
// every trial.
//
// Exit codes (documented in docs/LINT.md):
//   0 every bound derived, theorems reproduced, trace (if any) certified
//   1 findings were reported (unproved-access, symbolic-divergence,
//     theorem-divergence)
//   2 usage error
//   3 the --trace file was missing, unreadable, or corrupt
//   5 internal error

#include <charconv>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analyze/symbolic/prove.hpp"
#include "gpusim/layout.hpp"
#include "gpusim/trace.hpp"
#include "util/error.hpp"

namespace {

using namespace wcm;

constexpr const char* kUsage =
    R"(wcm-prove — symbolic bank-conflict bounds for the simulated sort engines

usage: wcm-prove [--engine name|all] [--w n] [--b n] [--pad n]
                 [--layout linear|xor|rotation] [--E-min n] [--E-max n]
                 [--any-E] [--ways k] [--digit-bits n] [--json]
                 [--trace file.wcmt]

flags:
  --engine name   blocksort, block-merge, pairwise, multiway, bitonic,
                  radix, scan, shearsort, or all (default all)
  --w n           warp width / bank count (default 32)
  --b n           block size in threads (default 64)
  --pad n         padded layout: n words after every w (default 0)
  --layout kind   bank permutation: linear, xor, or rotation
                  (default linear; gpusim/layout.hpp)
  --E-min n       lower end of the symbolic E range (default 3)
  --E-max n       upper end (default w - 1)
  --any-E         drop the E-odd congruence from the declared range
  --ways k        multiway fan-in (default 4)
  --digit-bits n  radix digit width (default 4)
  --json          machine-readable report (stable field order, integers
                  only; ends with an fnv1a digest of the body)
  --trace f.wcmt  additionally certify a recorded trace against the
                  derived bounds (requires a single --engine)
  --help          print this message

The IR grammar, the congruence/interval domain, the proof methods, and the
finding rules are documented in docs/LINT.md; the theorem instances map to
the paper in docs/THEORY.md.

exit codes: 0 proved clean, 1 findings, 2 usage, 3 bad trace file,
            5 internal error
)";

u32 parse_u32(const std::string& flag, const std::string& text) {
  u32 value = 0;
  const auto [ptr, err] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || err != std::errc() ||
      ptr != text.data() + text.size()) {
    throw parse_error("invalid value '" + text + "' for " + flag +
                      " (expected an unsigned integer)");
  }
  return value;
}

int run(int argc, char** argv) {
  analyze::symbolic::ProveOptions opts;
  std::string engine = "all";
  std::string trace_path;
  const auto need_value = [&](int i, const std::string& flag) {
    if (i + 1 >= argc) {
      throw parse_error(flag + " requires a value");
    }
    return std::string(argv[i + 1]);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    }
    if (arg == "--json") {
      opts.json = true;
    } else if (arg == "--any-E") {
      opts.any_e = true;
    } else if (arg == "--engine") {
      engine = need_value(i, arg);
      ++i;
    } else if (arg == "--trace") {
      trace_path = need_value(i, arg);
      ++i;
    } else if (arg == "--w") {
      opts.w = parse_u32(arg, need_value(i, arg));
      ++i;
    } else if (arg == "--b") {
      opts.b = parse_u32(arg, need_value(i, arg));
      ++i;
    } else if (arg == "--pad") {
      opts.pad = parse_u32(arg, need_value(i, arg));
      ++i;
    } else if (arg == "--layout") {
      opts.layout = gpusim::parse_layout_kind(need_value(i, arg));
      ++i;
    } else if (arg == "--E-min") {
      opts.e_min = parse_u32(arg, need_value(i, arg));
      ++i;
    } else if (arg == "--E-max") {
      opts.e_max = parse_u32(arg, need_value(i, arg));
      ++i;
    } else if (arg == "--ways") {
      opts.ways = parse_u32(arg, need_value(i, arg));
      ++i;
    } else if (arg == "--digit-bits") {
      opts.digit_bits = parse_u32(arg, need_value(i, arg));
      ++i;
    } else {
      throw parse_error(
          "unknown argument '" + arg +
          "' (valid: --engine, --w, --b, --pad, --layout, --E-min, --E-max, "
          "--any-E, --ways, --digit-bits, --json, --trace, --help)");
    }
  }
  if (!trace_path.empty() && engine == "all") {
    throw parse_error("--trace requires a single --engine to certify against");
  }

  analyze::symbolic::ProveReport report =
      analyze::symbolic::prove(analyze::symbolic::engines_named(engine), opts);

  if (!trace_path.empty()) {
    std::ifstream is(trace_path);
    if (!is) {
      throw io_error("cannot open trace file", trace_path);
    }
    gpusim::Trace trace;
    try {
      trace = gpusim::read_trace(is);
    } catch (const parse_error& e) {
      throw io_error(std::string("corrupt trace: ") + e.what(), trace_path);
    }
    analyze::symbolic::append_findings(
        report, analyze::symbolic::certify_trace(trace, report.engines.at(0)));
  }

  if (opts.json) {
    analyze::symbolic::render_json(std::cout, report);
  } else {
    analyze::symbolic::render_text(std::cout, report);
  }
  return report.findings.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const wcm::parse_error& e) {
    std::cerr << "usage error: " << e.what() << "\n"
              << "(run 'wcm-prove --help' for the full synopsis)\n";
    return 2;
  } catch (const wcm::contract_error& e) {
    // Shape and parameter errors (sort/registry.hpp's check, typed
    // config_error) come from flag values, so they are usage errors here.
    std::cerr << "usage error: " << e.what() << "\n"
              << "(run 'wcm-prove --help' for the full synopsis)\n";
    return 2;
  } catch (const wcm::io_error& e) {
    std::cerr << "input error: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "internal error: " << e.what() << "\n";
    return 5;
  } catch (...) {
    std::cerr << "internal error: unknown exception\n";
    return 5;
  }
}
