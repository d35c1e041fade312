// wcmgen — command-line front end for the library: generate, inspect, and
// measure adversarial inputs without writing any C++.  Every subcommand is
// one row of subcommands() below; kUsage is the synopsis (`wcmgen --help`).
//
// Every subcommand prints to stdout; `generate --out` additionally writes
// the WCMI binary (plus .csv with --csv).
//
// Exit codes (documented in docs/API.md):
//   0 success
//   1 findings reported (analyze, prove, and verify subcommands only)
//   2 usage error (unknown subcommand/flag, unparseable or unknown value)
//   3 bad input file (missing, truncated, corrupt WCMI/WCMT)
//   4 invalid configuration (E/b/w constraint violated)
//   5 internal error (simulator invariant break or any other exception)
//   6 degraded campaign (cells quarantined; aggregate still written)
//   7 interrupted campaign (SIGINT/SIGTERM drain; resume with --resume)
//
// `serve` exits 0 after a clean drain (every request answered) and 5 when
// the drain invariant is violated; socket errors map to 3 as usual.

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "analysis/json_export.hpp"
#include "analyze/lint.hpp"
#include "analyze/passes/verify.hpp"
#include "analyze/symbolic/certify.hpp"
#include "analyze/symbolic/prove.hpp"
#include "gpusim/layout.hpp"
#include "gpusim/trace.hpp"
#include "core/conflict_model.hpp"
#include "core/generator.hpp"
#include "core/numbers.hpp"
#include "core/warp_construction.hpp"
#include "runtime/cache.hpp"
#include "runtime/campaign.hpp"
#include "runtime/scheduler.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "telemetry/eventlog.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"
#include "util/version.hpp"
#include "util/failpoint.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "sort/registry.hpp"
#include "util/error.hpp"
#include "workload/inputs.hpp"
#include "workload/inversions.hpp"
#include "workload/io.hpp"

namespace {

using namespace wcm;

constexpr const char* kUsage =
    R"(wcmgen — worst-case input engineering for GPU pairwise merge sort

usage: wcmgen <subcommand> [--flags]

subcommands:
  generate   build a worst-case permutation
             --E n --b n [--w n] [--padding n] [--k n] [--seed n]
             [--strategy front-to-back|back-to-front|outside-in]
             [--intra] [--rounds n] [--out file.wcmi] [--csv]
  evaluate   score one worst-case warp against the closed forms
             --E n [--w n] [--side L|R] [--strategy name]
  sort       run a simulated sort and print its per-kernel profile (time,
             beta1/beta2, replays, conflicts per element, global
             transactions, search steps) and the modeled time split
             --E n --b n [--w n] [--padding n] [--k n] [--seed n]
             [--layout linear|xor|rotation]
             [--input random|sorted|reversed|nearly-sorted|worst-case]
             [--device m4000|2080ti] [--library thrust|mgpu]
             [--algorithm pairwise|multiway|bitonic|radix|shearsort]
             [--ways n] [--digit-bits n] [--json]
             [--trace-out file.wcmt]
  inspect    validate and summarize a WCMI file
             --in file.wcmi
  analyze    lint recorded shared-memory traces (races, bounds, strides;
             see docs/LINT.md); the text summary re-prices each trace
             under --pad/--layout (replayed serialization and replays)
             trace.wcmt [more.wcmt...] [--in file.wcmt] [--json] [--pad n]
             [--layout linear|xor|rotation] [--no-cross-check]
  prove      derive symbolic bank-conflict bounds for the sort engines,
             valid for every E in the declared range, without executing
             any trace; cross-checks Theorems 3 and 9 (docs/LINT.md).
             --trace also certifies a recorded trace of one --engine
             against its derived bounds.
             --certify upgrades the bounds to a machine-checkable
             certificate over a (b, pad) grid: every statement proved
             conflict-free, or a DMM-replay-confirmed counterexample
             [--engine blocksort|block-merge|pairwise|multiway|bitonic|
              radix|scan|shearsort|all] [--w n] [--b n] [--pad n]
             [--layout linear|xor|rotation] [--E-min n] [--E-max n]
             [--any-E] [--ways k] [--digit-bits n] [--json]
             [--trace file.wcmt] [--certify] [--bs n,n,...] [--pads n,n,...]
  verify     statically verify the engines' access-pattern declarations
             across warp widths: barrier uniformity, def-use (no
             uninitialized or out-of-bounds shared-memory access) for
             every E in range, parametric-w conflict bounds, the
             non-coprime gcd(w,E) breakdown sweep of Theorems 3/9, and a
             static-vs-dynamic differential gate (docs/LINT.md); the
             report is digest-sealed like prove --certify
             [--engine name|all] [--ws n,n,...] [--b n] [--pad n]
             [--layout linear|xor|rotation] [--E-min n] [--E-max n]
             [--odd-E] [--ways k] [--digit-bits n] [--no-differential]
             [--json]
  visualize  render one worst-case warp assignment (Figure 3) with its
             aligned count, per-step serialization and conflict heatmap;
             an E outside the construction's domain renders sorted order
             (Figure 1)
             --E n [--w n] [--strategy name]
  campaign   expand a JSON grid spec into cells and run them on the
             parallel runtime with result caching, a crash-safe journal,
             retry/quarantine fault tolerance, and graceful SIGINT/SIGTERM
             drain (docs/RUNTIME.md)
             spec.json [--threads n] [--no-cache] [--cache file.wcmc]
             [--out file.json] [--trace-dir dir] [--quiet]
             [--journal file.wcmj] [--resume] [--retries n] [--fail-fast]
  profile    run any invocation under telemetry: span tracing to a
             Chrome/Perfetto trace plus a metrics summary table
             (docs/TELEMETRY.md); exit code is the wrapped command's
             profile [--telemetry trace.json] [--metrics metrics.json]
               <subcommand + its flags>            wrap an invocation, or
               --engine pairwise|multiway|bitonic|radix|shearsort
               --adversarial small-E|large-E [--k n] [--seed n]
               [--device name] [--json]            canned adversarial sort
  serve      run the wcmd daemon in-process: accept line-delimited JSON
             requests over a Unix-domain socket with request coalescing,
             batched scheduling, and a multi-tenant response cache
             (docs/SERVE.md); SIGINT/SIGTERM drain gracefully
             [--socket path|@name] [--data-dir dir] [--threads n]
             [--queue-max n] [--batch-max n] [--max-connections n]
             [--eventlog file.jsonl] [--quiet]
  metrics    fetch a running daemon's metrics over its socket and print
             them (docs/TELEMETRY.md "Exposition formats"); --format
             prometheus emits Prometheus text exposition 0.0.4
             [--socket path|@name] [--format json|text|prometheus]
             [--timeout-ms n]
  version    print the release version, the git describe this binary was
             built from, and the response-cache salt (also --version / -V)
  help       print this message (also --help / -h)

exit codes: 0 ok, 1 findings (analyze/prove/verify), 2 usage, 3 bad input
            file,
            4 bad configuration, 5 internal error (or a violated serve
            drain invariant), 6 degraded campaign (quarantined cells),
            7 interrupted campaign (resumable)
)";

/// Comma-separated list of unsigned decimals ("0,1,4"); every element is
/// parsed with the same strictness as a scalar flag value.
std::vector<u32> parse_u32_list(const std::string& flag,
                                const std::string& text) {
  std::vector<u32> values;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    values.push_back(static_cast<u32>(
        parse_unsigned(flag, text.substr(start, end - start),
                       std::numeric_limits<std::uint32_t>::max())));
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return values;
}

std::string join_choices(const std::vector<std::string>& choices) {
  std::string out;
  for (const auto& c : choices) {
    if (!out.empty()) {
      out += ", ";
    }
    out += c;
  }
  return out;
}

/// One parsed invocation: flag values by "--name", plus the positional
/// operands in command-line order.
struct Args {
  std::map<std::string, std::string> named;
  std::vector<std::string> operands;

  bool flag(const std::string& name) const {
    return named.count("--" + name) > 0;
  }
  std::string get(const std::string& name, const std::string& fallback) const {
    const auto it = named.find("--" + name);
    return it == named.end() ? fallback : it->second;
  }
  u64 get_u64(const std::string& name, u64 fallback,
              u64 max = std::numeric_limits<u64>::max()) const {
    const auto it = named.find("--" + name);
    return it == named.end() ? fallback
                             : parse_unsigned("--" + name, it->second, max);
  }
  u32 get_u32(const std::string& name, u32 fallback) const {
    return static_cast<u32>(get_u64(
        name, fallback, std::numeric_limits<std::uint32_t>::max()));
  }
};

/// One row of the subcommand table: the name, the handler, and the flags
/// the parser accepts for it.  A `raw` subcommand parses its own tokens,
/// which it receives unparsed as operands.
struct Subcommand {
  std::string name;
  int (*run)(const Args&) = nullptr;
  std::vector<std::string> options{};   ///< flags that take a value
  std::vector<std::string> switches{};  ///< flags that take none
  std::size_t max_operands = 0;
  bool wrappable = true;  ///< `wcmgen profile <name> ...` may wrap it
  bool raw = false;
};

constexpr std::size_t kAnyOperands = std::numeric_limits<std::size_t>::max();

/// Split `tokens` into flags and operands under `cmd`'s flag set.  Every
/// subcommand accepts --help.  A value never starts with "--", so a flag
/// missing its value is reported rather than swallowing the next flag.
Args parse(const Subcommand& cmd, const std::vector<std::string>& tokens) {
  Args args;
  if (cmd.raw) {
    args.operands = tokens;
    return args;
  }
  const auto in = [](const std::vector<std::string>& set,
                     const std::string& name) {
    return std::find(set.begin(), set.end(), name) != set.end();
  };
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token.rfind("--", 0) != 0) {
      args.operands.push_back(token);
      continue;
    }
    const std::string name = token.substr(2);
    if (name == "help" || in(cmd.switches, name)) {
      args.named[token] = "";
    } else if (in(cmd.options, name)) {
      if (i + 1 == tokens.size() || tokens[i + 1].rfind("--", 0) == 0) {
        throw parse_error("flag " + token + " requires a value");
      }
      args.named[token] = tokens[++i];
    } else {
      std::vector<std::string> valid;
      for (const auto* set : {&cmd.options, &cmd.switches}) {
        for (const std::string& f : *set) {
          valid.push_back("--" + f);
        }
      }
      throw parse_error("unknown flag '" + token + "' for subcommand '" +
                        cmd.name + "' (valid: " + join_choices(valid) + ")");
    }
  }
  if (args.operands.size() > cmd.max_operands) {
    throw parse_error("unexpected argument '" +
                      args.operands[cmd.max_operands] + "' for subcommand '" +
                      cmd.name + "' (flags start with --)");
  }
  return args;
}

/// Strict choice parse: value must match one of `choices` exactly.
template <typename T>
T parse_choice(const std::string& flag, const std::string& value,
               const std::vector<std::pair<std::string, T>>& choices) {
  std::vector<std::string> names;
  names.reserve(choices.size());
  for (const auto& [name, v] : choices) {
    if (value == name) {
      return v;
    }
    names.push_back(name);
  }
  throw parse_error("unknown value '" + value + "' for " + flag +
                    " (valid: " + join_choices(names) + ")");
}

core::AlignmentStrategy parse_strategy(const std::string& s) {
  return parse_choice<core::AlignmentStrategy>(
      "--strategy", s,
      {{"front-to-back", core::AlignmentStrategy::front_to_back},
       {"back-to-front", core::AlignmentStrategy::back_to_front},
       {"outside-in", core::AlignmentStrategy::outside_in}});
}

sort::SortConfig config_from(const Args& a) {
  sort::SortConfig cfg;
  cfg.E = a.get_u32("E", 15);
  cfg.b = a.get_u32("b", 512);
  cfg.w = a.get_u32("w", 32);
  cfg.padding = a.get_u32("padding", 0);
  cfg.layout = gpusim::parse_layout_kind(a.get("layout", "linear"));
  cfg.validate();
  return cfg;
}

gpusim::Device device_from(const Args& a) {
  return parse_choice<gpusim::Device>(
      "--device", a.get("device", "m4000"),
      {{"m4000", gpusim::quadro_m4000()},
       {"quadro", gpusim::quadro_m4000()},
       {"2080ti", gpusim::rtx_2080ti()},
       {"rtx2080ti", gpusim::rtx_2080ti()}});
}

/// The construction regime of (w, E), checked up front so an impossible
/// --w is a configuration error (exit 4), never a violated contract deep in
/// the construction (exit 5).
core::ERegime regime_from(u32 w, u32 e) {
  if (!is_pow2(w)) {
    throw config_error("--w must be a power of two (got " +
                       std::to_string(w) + ")");
  }
  return core::classify_e(w, e);
}

bool has_construction(core::ERegime regime) {
  return regime == core::ERegime::small || regime == core::ERegime::large;
}

int cmd_generate(const Args& a) {
  const auto cfg = config_from(a);
  const u32 k = static_cast<u32>(a.get_u64("k", 8, 40));  // n = bE * 2^k
  const std::size_t n = cfg.tile() << k;
  core::AttackOptions opts;
  opts.tile_shuffle_seed = a.get_u64("seed", 1);
  opts.small_e_strategy = parse_strategy(a.get("strategy", "front-to-back"));
  opts.attack_intra_block = a.flag("intra");
  opts.max_attacked_rounds =
      static_cast<std::size_t>(a.get_u64("rounds", static_cast<u64>(-1)));

  u64 inversions = 0;
  const auto input = core::worst_case_input(n, cfg, opts, &inversions);
  std::cout << "generated " << n << " keys for " << cfg.to_string()
            << " (attacking "
            << std::min<std::size_t>(opts.max_attacked_rounds,
                                     core::attacked_round_count(n, cfg))
            << " of " << core::attacked_round_count(n, cfg)
            << " global rounds, predicted beta_2 = "
            << core::predicted_beta2(cfg.w, cfg.E) << ")\n";
  std::cout << "inversion fraction: "
            << workload::inversion_fraction(inversions, n) << "\n";

  const std::string out = a.get("out", "");
  if (!out.empty()) {
    workload::write_binary(out, input);
    std::cout << "wrote " << out << "\n";
    if (a.flag("csv")) {
      workload::write_csv(out + ".csv", input);
      std::cout << "wrote " << out << ".csv\n";
    }
  } else {
    std::cout << "first keys:";
    for (std::size_t i = 0; i < std::min<std::size_t>(16, n); ++i) {
      std::cout << ' ' << input[i];
    }
    std::cout << " ...\n(use --out file.wcmi to save)\n";
  }
  return 0;
}

int cmd_evaluate(const Args& a) {
  const u32 w = a.get_u32("w", 32);
  const u32 e = a.get_u32("E", 15);
  const auto side = parse_choice<core::WarpSide>(
      "--side", a.get("side", "L"),
      {{"L", core::WarpSide::L}, {"R", core::WarpSide::R}});
  const auto strategy = parse_strategy(a.get("strategy", "front-to-back"));
  if (!has_construction(regime_from(w, e))) {
    throw config_error("evaluate needs gcd(w, E) == 1 and 3 <= E < w (got w=" +
                       std::to_string(w) + ", E=" + std::to_string(e) + ")");
  }
  const auto wa = core::worst_case_warp(w, e, side, strategy);
  const u32 s = core::alignment_window_start(w, e, strategy);
  const auto eval = core::evaluate_warp(wa, s);
  std::cout << "w=" << w << " E=" << e << " side="
            << (side == core::WarpSide::L ? "L" : "R") << " strategy="
            << core::to_string(strategy) << "\n"
            << "aligned " << eval.aligned << " / " << w * e
            << " (closed form " << core::aligned_worst_case(w, e) << ")\n"
            << "serialization " << eval.totals.serialization << " cycles, "
            << eval.totals.replays << " replays, effective parallelism "
            << w << " -> " << core::effective_parallelism(w, e) << "\n";
  return 0;
}

void print_profile(const sort::SortReport& report) {
  Table t({"kernel", "time_ms", "beta1", "beta2", "replays", "conflicts/elem",
           "global_txn", "search_steps"});
  for (const auto& r : report.rounds) {
    t.new_row()
        .add(r.name)
        .add(r.modeled_seconds * 1e3, 4)
        .add(gpusim::beta1(r.kernel), 2)
        .add(gpusim::beta2(r.kernel), 2)
        .add(r.kernel.shared.replays)
        .add(gpusim::conflicts_per_element(r.kernel), 3)
        .add(r.kernel.global_transactions)
        .add(r.kernel.binary_search_steps);
  }
  t.print(std::cout);
  const gpusim::KernelTime& time = report.total_time;
  std::cout << "time split: bandwidth " << time.t_bandwidth * 1e3
            << "ms, shared " << time.t_shared * 1e3 << "ms, compute "
            << time.t_compute * 1e3 << "ms, latency " << time.t_latency * 1e3
            << "ms, overhead " << time.t_overhead * 1e3 << "ms\n";
}

int cmd_sort(const Args& a) {
  auto cfg = config_from(a);
  const std::string trace_out = a.get("trace-out", "");
  gpusim::TraceRecorder recorder;
  if (!trace_out.empty()) {
    cfg.trace_sink = &recorder;
  }
  const auto dev = device_from(a);
  const u32 k = static_cast<u32>(a.get_u64("k", 6, 40));  // n = bE * 2^k
  const std::size_t n = cfg.tile() << k;
  const sort::EngineInfo& engine =
      sort::find_runnable(a.get("algorithm", "pairwise"));
  sort::EngineParams params;
  params.library = parse_choice<sort::MergeSortLibrary>(
      "--library", a.get("library", "thrust"),
      {{"thrust", sort::MergeSortLibrary::thrust},
       {"mgpu", sort::MergeSortLibrary::mgpu}});
  params.ways = a.get_u32("ways", params.ways);
  params.digit_bits = a.get_u32("digit-bits", params.digit_bits);
  sort::check(engine, cfg, params);

  const auto kind = parse_choice<workload::InputKind>(
      "--input", a.get("input", "worst-case"),
      {{"random", workload::InputKind::random},
       {"sorted", workload::InputKind::sorted},
       {"reversed", workload::InputKind::reversed},
       {"nearly-sorted", workload::InputKind::nearly_sorted},
       {"worst-case", workload::InputKind::worst_case}});

  const auto input = workload::make_input(kind, n, cfg, a.get_u64("seed", 1));
  const sort::SortReport report =
      sort::launch(engine, input, cfg, dev, params);
  if (!trace_out.empty()) {
    std::ofstream os(trace_out);
    if (!os) {
      throw io_error("cannot open trace output file", trace_out);
    }
    gpusim::write_trace(os, recorder.trace());
    std::cerr << "wrote " << recorder.trace().steps.size()
              << " trace steps to " << trace_out << "\n";
  }
  if (a.flag("json")) {
    analysis::write_report_json(std::cout, report);
    std::cout << "\n";
    return 0;
  }
  std::cout << report.summary() << " input=" << workload::to_string(kind)
            << "\n\n";
  print_profile(report);
  return 0;
}

int cmd_inspect(const Args& a) {
  const std::string in = a.get("in", "");
  if (in.empty()) {
    throw parse_error("inspect requires --in file.wcmi");
  }
  const auto keys = workload::read_binary(in);
  std::cout << in << ": " << keys.size() << " keys\n";
  if (!keys.empty()) {
    std::cout << "inversion fraction: "
              << workload::inversion_fraction(keys) << "\n"
              << "permutation of 0..n-1: "
              << (workload::is_permutation_of_iota(keys) ? "yes" : "no")
              << "\n";
    std::cout << "first keys:";
    for (std::size_t i = 0; i < std::min<std::size_t>(16, keys.size()); ++i) {
      std::cout << ' ' << keys[i];
    }
    std::cout << "\n";
  }
  return 0;
}

int cmd_analyze(const Args& a) {
  std::vector<std::string> files = a.operands;
  if (a.flag("in")) {
    files.push_back(a.get("in", ""));
  }
  if (files.empty()) {
    throw parse_error("analyze requires one or more trace files");
  }
  analyze::LintOptions opts;
  opts.json = a.flag("json");
  opts.analysis.pad = a.get_u32("pad", 0);
  opts.analysis.layout = gpusim::parse_layout_kind(a.get("layout", "linear"));
  opts.analysis.cross_check = !a.flag("no-cross-check");
  return analyze::run_lint(files, opts, std::cout, std::cerr);
}

/// Read the symbolic shape flag set shared by the `prove` branches and
/// `verify` into `f`, whose values are the defaults: one parse, so the
/// subcommands cannot drift apart on flag semantics.
void read_shape_flags(const Args& a, analyze::symbolic::ProveOptions& f) {
  f.w = a.get_u32("w", f.w);
  f.b = a.get_u32("b", f.b);
  f.pad = a.get_u32("pad", f.pad);
  f.layout = gpusim::parse_layout_kind(a.get("layout", "linear"));
  f.e_min = a.get_u32("E-min", f.e_min);
  f.e_max = a.get_u32("E-max", f.e_max);
  f.ways = a.get_u32("ways", f.ways);
  f.digit_bits = a.get_u32("digit-bits", f.digit_bits);
  f.any_e = a.flag("any-E");
  f.json = a.flag("json");
}

std::vector<std::string> engine_list(const Args& a) {
  return analyze::symbolic::engines_named(a.get("engine", "all"));
}

int cmd_prove(const Args& a) {
  analyze::symbolic::ProveOptions opts;
  read_shape_flags(a, opts);
  const bool trace = a.flag("trace");
  if (a.flag("certify")) {
    if (trace) {
      throw parse_error("--trace certifies one recorded run against the "
                        "proved bounds; it does not combine with --certify");
    }
    // Certification mode: universally quantified conflict-freedom over a
    // (b, pad) grid, or a replay-confirmed counterexample (docs/THEORY.md).
    analyze::symbolic::CertifyOptions copts{opts};
    copts.bs = parse_u32_list("--bs", a.get("bs", a.get("b", "64")));
    copts.pads = parse_u32_list("--pads", a.get("pads", a.get("pad", "0")));
    const std::vector<std::string> engines = engine_list(a);
    bool all_certified = true;
    for (const auto& name : engines) {
      const auto cert = analyze::symbolic::certify_engine(name, copts);
      if (copts.json) {
        // One JSON document per engine, one per line (NDJSON for "all").
        analyze::symbolic::render_json(std::cout, cert);
      } else {
        analyze::symbolic::render_text(std::cout, cert);
      }
      all_certified = all_certified && cert.certified;
    }
    return all_certified ? 0 : 1;
  }
  if (a.flag("bs") || a.flag("pads")) {
    throw parse_error("--bs/--pads are grid axes of certification mode "
                      "(add --certify, or use scalar --b/--pad)");
  }
  const std::vector<std::string> engines = engine_list(a);
  if (trace && engines.size() != 1) {
    throw parse_error("--trace requires a single --engine to certify against");
  }
  auto report = analyze::symbolic::prove(engines, opts);
  if (trace) {
    // The static/dynamic cross-check: replay the recorded trace through
    // the DMM and certify every step against the derived bound.
    analyze::symbolic::append_findings(
        report, analyze::symbolic::certify_trace(
                    analyze::load_trace_file(a.get("trace", "")),
                    report.engines.at(0)));
  }
  if (opts.json) {
    analyze::symbolic::render_json(std::cout, report);
  } else {
    analyze::symbolic::render_text(std::cout, report);
  }
  return report.findings.empty() ? 0 : 1;
}

int cmd_verify(const Args& a) {
  analyze::passes::VerifyOptions opts;
  // E defaults deliberately exceed the conflict prover's E < w domain:
  // the def-use and barrier passes are universal over the whole range,
  // the conflict-bound pass clamps itself to the model's regime.
  read_shape_flags(a, opts);
  opts.ws = parse_u32_list("--ws", a.get("ws", "2,4,8,16,32,64"));
  for (const u32 w : opts.ws) {
    if (w < 1) {
      throw parse_error("--ws values must be >= 1");
    }
  }
  // verify defaults to every E (the static claims are universal); --odd-E
  // restricts to the paper's odd-E congruence like prove's default.
  opts.any_e = !a.flag("odd-E");
  opts.differential = !a.flag("no-differential");
  if (opts.e_min < 1 || opts.e_min > opts.e_max) {
    throw parse_error("verify needs 1 <= --E-min <= --E-max");
  }
  const auto report = analyze::passes::run_verify(engine_list(a), opts);
  if (opts.json) {
    analyze::passes::render_json(std::cout, report);
  } else {
    analyze::passes::render_text(std::cout, report);
  }
  return report.proved && report.differential_ok ? 0 : 1;
}

/// Shared by the SIGINT/SIGTERM handlers and the campaign: cancel() is a
/// lock-free atomic store, so it is async-signal-safe.
runtime::CancelSource g_campaign_cancel;

extern "C" void wcmgen_on_signal(int /*signum*/) {
  g_campaign_cancel.cancel();
}

int cmd_campaign(const Args& a) {
  const std::string path =
      a.operands.empty() ? a.get("spec", "") : a.operands.front();
  if (path.empty()) {
    throw parse_error(
        "campaign requires a spec file: wcmgen campaign spec.json");
  }
  const auto spec = runtime::load_campaign_spec(path);

  runtime::CampaignOptions opts;
  opts.threads = a.get_u32("threads", 0);
  opts.use_cache = !a.flag("no-cache");
  opts.cache_path = a.get("cache", "");
  opts.trace_dir = a.get("trace-dir", "");
  if (!a.flag("quiet")) {
    opts.progress = &std::cerr;
  }
  // Journal next to the spec by default (like the cache), overridable.
  opts.journal_path = a.get("journal", path + ".wcmj");
  opts.resume = a.flag("resume");
  opts.fail_fast = a.flag("fail-fast");
  // --retries n = n re-runs after the first failure.
  opts.retry.max_attempts =
      static_cast<u32>(a.get_u64("retries", 2, 100)) + 1;

  // Graceful drain: a signal stops admission; in-flight cells finish and
  // are journaled; the process exits 7 with a --resume-able journal.
  opts.cancel = &g_campaign_cancel;
  std::signal(SIGINT, wcmgen_on_signal);
  std::signal(SIGTERM, wcmgen_on_signal);
  const auto outcome = runtime::run_campaign(spec, opts);
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  if (outcome.interrupted()) {
    std::cerr << "campaign " << spec.name << ": interrupted — "
              << outcome.cancelled
              << " cells pending; rerun with --resume to continue\n";
    return 7;
  }

  const std::string out = a.get("out", "");
  if (!out.empty()) {
    std::ofstream os(out);
    if (!os) {
      throw io_error("cannot open campaign output file", out);
    }
    os << outcome.json << "\n";
    if (!os) {
      throw io_error("campaign output write failed", out);
    }
  } else {
    std::cout << outcome.json << "\n";
  }
  // Fixed-format summary (campaign_ci greps these fields).
  std::cerr << "campaign " << spec.name << ": cells=" << outcome.cells
            << " computed=" << outcome.computed
            << " cached=" << outcome.cache_hits
            << " replayed=" << outcome.replayed
            << " quarantined=" << outcome.quarantined.size()
            << " threads=" << outcome.threads << " wall=" << outcome.wall_seconds
            << "s\n";
  for (const auto& q : outcome.quarantined) {
    std::cerr << "quarantined cell " << q.index << " (" << q.label
              << ") after " << q.attempts << " attempts: " << q.message
              << "\n";
  }
  return outcome.degraded() ? 6 : 0;
}

int cmd_version(const Args& /*a*/) {
  // version = the release; describe = the exact commit the binary came
  // from; salt = what partitions WCMC/WCMS cache files across builds (a
  // mismatched salt is why a daemon starts cold after an upgrade).
  std::cout << "wcmgen " << version_string() << " (" << build_describe()
            << ")\n"
            << "cache salt: 0x" << std::hex << runtime::code_version_salt()
            << std::dec << "\n";
  return 0;
}

int cmd_serve(const Args& a) {
  const serve::DaemonOptions opts = serve::parse_daemon_flags(a.operands);
  if (opts.help) {
    std::cout << kUsage;
    return 0;
  }
  if (opts.version) {
    return cmd_version(a);
  }
  return serve::run_server(opts);
}

int cmd_metrics(const Args& a) {
  const std::string socket = a.get("socket", "@wcmd");
  const std::string format = a.get("format", "json");
  if (format != "json" && format != "text" && format != "prometheus") {
    throw parse_error("invalid value '" + format +
                      "' for --format (valid: json, prometheus, text)");
  }
  const u64 timeout_ms = a.get_u64("timeout-ms", 2000, 600'000);
  serve::Client client = serve::connect_with_retry(socket, timeout_ms);
  json::Object params;
  params.emplace("format", json::Value(format));
  json::Object req;
  req.emplace("id", json::Value(std::string("metrics")));
  req.emplace("op", json::Value(std::string("metrics")));
  req.emplace("params", json::Value(std::move(params)));
  const std::string reply =
      client.roundtrip(json::to_text(json::Value(std::move(req))));
  const json::Value doc = json::parse(reply);
  const json::Object& fields = doc.as_object();
  const auto ok = fields.find("ok");
  if (ok == fields.end() || !ok->second.as_bool()) {
    throw io_error("daemon refused the metrics request", reply);
  }
  const json::Value& result = fields.at("result");
  if (format == "json") {
    std::cout << json::to_text(result) << "\n";
  } else {
    // The daemon wraps line-oriented expositions in a {"body","format"}
    // envelope; unwrap so stdout is the raw scrape document.
    std::cout << result.as_object().at("body").as_string();
  }
  return 0;
}

int cmd_visualize(const Args& a) {
  const u32 w = a.get_u32("w", 16);
  const u32 e = a.get_u32("E", 7);
  const auto strategy = parse_strategy(a.get("strategy", "front-to-back"));
  const core::ERegime regime = regime_from(w, e);
  if (!has_construction(regime)) {
    // Sorted order (the Figure 1 situation): every d = gcd(w, E)-th chunk
    // aligns.
    if (e < 1 || e > w) {
      throw config_error("visualize needs 1 <= E <= w (got w=" +
                         std::to_string(w) + ", E=" + std::to_string(e) +
                         ")");
    }
    const auto wa = core::sorted_order_warp(w, e);
    std::cout << "Sorted order, w=" << w << ", E=" << e
              << " (gcd = " << gcd(w, e) << "):\n"
              << core::render_warp(wa) << "aligned "
              << core::evaluate_warp(wa, 0).aligned << " of " << w * e
              << " elements\n";
    return 0;
  }
  const auto wa = core::worst_case_warp(w, e, core::WarpSide::L, strategy);
  const u32 s = core::alignment_window_start(w, e, strategy);
  const auto eval = core::evaluate_warp(wa, s);
  std::cout << "Worst-case construction, w=" << w << ", E=" << e << " ("
            << (regime == core::ERegime::small ? "small" : "large")
            << " E, window starts at bank " << s << "):\n"
            << core::render_warp(wa) << "aligned " << eval.aligned << " of "
            << w * e << " elements; per-step serialization:";
  for (const auto d : eval.step_degree) {
    std::cout << ' ' << d;
  }
  std::cout << "\n\nconflict heatmap (threads per bank per iteration):\n"
            << core::render_conflict_heatmap(wa);
  return 0;
}

int cmd_help(const Args& /*a*/) {
  std::cout << kUsage;
  return 0;
}

int cmd_profile(const Args& a);

/// The one subcommand table: dispatch, the profile wrapper and the
/// unknown-subcommand message all read it.
const std::vector<Subcommand>& subcommands() {
  static const std::vector<Subcommand> table = {
      {.name = "generate",
       .run = cmd_generate,
       .options = {"E", "b", "w", "padding", "k", "seed", "strategy",
                   "rounds", "out"},
       .switches = {"intra", "csv"}},
      {.name = "evaluate",
       .run = cmd_evaluate,
       .options = {"E", "w", "side", "strategy"}},
      {.name = "sort",
       .run = cmd_sort,
       .options = {"E", "b", "w", "padding", "layout", "k", "seed", "input",
                   "device", "library", "algorithm", "ways", "digit-bits",
                   "trace-out"},
       .switches = {"json"}},
      {.name = "inspect", .run = cmd_inspect, .options = {"in"}},
      {.name = "analyze",
       .run = cmd_analyze,
       .options = {"in", "pad", "layout"},
       .switches = {"json", "no-cross-check"},
       .max_operands = kAnyOperands},
      {.name = "prove",
       .run = cmd_prove,
       .options = {"engine", "w", "b", "pad", "layout", "E-min", "E-max",
                   "ways", "digit-bits", "bs", "pads", "trace"},
       .switches = {"any-E", "json", "certify"}},
      {.name = "verify",
       .run = cmd_verify,
       .options = {"engine", "ws", "b", "pad", "layout", "E-min", "E-max",
                   "ways", "digit-bits"},
       .switches = {"odd-E", "json", "no-differential"}},
      {.name = "visualize",
       .run = cmd_visualize,
       .options = {"E", "w", "strategy"}},
      {.name = "campaign",
       .run = cmd_campaign,
       .options = {"spec", "threads", "cache", "out", "trace-dir", "journal",
                   "retries"},
       .switches = {"no-cache", "quiet", "resume", "fail-fast"},
       .max_operands = 1},
      // serve parses with serve::parse_daemon_flags, shared with wcmd.
      {.name = "serve", .run = cmd_serve, .wrappable = false, .raw = true},
      {.name = "metrics",
       .run = cmd_metrics,
       .options = {"socket", "format", "timeout-ms"},
       .wrappable = false},
      {.name = "version", .run = cmd_version, .wrappable = false, .raw = true},
      {.name = "profile", .run = cmd_profile, .wrappable = false, .raw = true},
      {.name = "help", .run = cmd_help, .wrappable = false, .raw = true},
  };
  return table;
}

const Subcommand* find_subcommand(const std::string& name) {
  for (const Subcommand& cmd : subcommands()) {
    if (cmd.name == name) {
      return &cmd;
    }
  }
  return nullptr;
}

/// Route one subcommand invocation; `tokens` are the arguments after the
/// subcommand name.  Shared by run() and the profile wrapper, so
/// `wcmgen profile <anything>` executes the exact same code path as the
/// bare invocation.
int dispatch(const std::string& name, const std::vector<std::string>& tokens) {
  const Subcommand* cmd = find_subcommand(name);
  if (cmd == nullptr) {
    std::vector<std::string> names;
    for (const Subcommand& c : subcommands()) {
      names.push_back(c.name);
    }
    throw parse_error("unknown subcommand '" + name +
                      "' (valid: " + join_choices(names) + ")");
  }
  const Args args = parse(*cmd, tokens);
  if (args.flag("help")) {
    std::cout << kUsage;
    return 0;
  }
  return cmd->run(args);
}

/// The flag set of profile's canned mode (no wrapped subcommand).
const Subcommand kCannedProfile = {
    .name = "profile",
    .options = {"engine", "adversarial", "k", "seed", "device"},
    .switches = {"json"}};

int cmd_profile(const Args& wrapper) {
  // Peel off the profile-only flags; everything else is either a wrapped
  // subcommand invocation or the canned-adversarial flag set.
  std::string trace_out;
  std::string metrics_out;
  std::vector<std::string> rest;
  const std::vector<std::string>& tokens = wrapper.operands;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& arg = tokens[i];
    if (arg == "--telemetry" || arg == "--metrics") {
      if (i + 1 == tokens.size() || tokens[i + 1].rfind("--", 0) == 0) {
        throw parse_error("flag " + arg + " requires a file path");
      }
      (arg == "--telemetry" ? trace_out : metrics_out) = tokens[++i];
    } else {
      rest.push_back(arg);
    }
  }

  telemetry::set_enabled(true);
  telemetry::set_tracing(true);
  if (!trace_out.empty()) {
    telemetry::set_trace_path(trace_out);
  }

  int code = 0;
  const Subcommand* wrapped =
      rest.empty() ? nullptr : find_subcommand(rest.front());
  if (wrapped != nullptr && wrapped->wrappable) {
    // Wrapped mode: re-dispatch the inner invocation untouched.
    code = dispatch(rest.front(), {rest.begin() + 1, rest.end()});
  } else {
    // Canned mode: a worst-case sort in the requested E regime.
    const Args a = parse(kCannedProfile, rest);
    const std::string engine = a.get("engine", "");
    if (engine.empty()) {
      throw parse_error(
          "profile needs a subcommand to wrap, or --engine with "
          "--adversarial small-E|large-E (see wcmgen --help)");
    }
    const bool small_e = parse_choice<bool>(
        "--adversarial", a.get("adversarial", "large-E"),
        {{"small-E", true}, {"large-E", false}});

    Args sorta;
    // small-E (E < w/2, Theorem 3) vs large-E (w/2 < E < w, Theorem 9 —
    // the regime the paper's headline slowdown comes from).
    sorta.named["--E"] = small_e ? "5" : "31";
    sorta.named["--b"] = "64";
    sorta.named["--w"] = "32";
    sorta.named["--k"] = std::to_string(a.get_u64("k", 4, 40));
    sorta.named["--seed"] = std::to_string(a.get_u64("seed", 1));
    sorta.named["--input"] = "worst-case";
    sorta.named["--algorithm"] = engine;
    sorta.named["--device"] = a.get("device", "m4000");
    if (a.flag("json")) {
      sorta.named["--json"] = "";
    }
    code = cmd_sort(sorta);
  }

  // Observability must never change the observed run's outcome: metric
  // and trace export failures warn and leave `code` alone.
  try {
    const telemetry::Snapshot snap = telemetry::registry().snapshot();
    std::cout << "--- telemetry metrics ---\n";
    snap.write_text(std::cout);
    if (!metrics_out.empty()) {
      std::ofstream os(metrics_out);
      if (!os) {
        throw io_error("cannot open metrics output file", metrics_out);
      }
      snap.write_json(os);
      if (!os) {
        throw io_error("metrics write failed", metrics_out);
      }
      std::cerr << "wrote metrics to " << metrics_out << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "warning: telemetry: metrics export failed: " << e.what()
              << " (run continues)\n";
  }
  telemetry::flush_trace(&std::cerr);
  return code;
}

int run(int argc, char** argv) {
  // Surface a malformed WCM_FAILPOINTS value up front as a usage error
  // (exit 2) rather than letting the lazy parse throw mid-run inside a
  // worker (which would report exit 5).
  failpoint::configure_from_env();
  if (argc < 2) {
    std::cerr << kUsage;
    return 2;
  }
  std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h") {
    cmd = "help";
  } else if (cmd == "--version" || cmd == "-V") {
    cmd = "version";
  }
  return dispatch(cmd, {argv + 2, argv + argc});
}

}  // namespace

int main(int argc, char** argv) {
  // WCM_TRACE_OUT / WCM_TELEMETRY / WCM_EVENTLOG work for every
  // subcommand, not just profile (docs/TELEMETRY.md).
  telemetry::configure_from_env();
  telemetry::eventlog::configure_from_env();
  int code = 0;
  try {
    code = run(argc, argv);
  } catch (const parse_error& e) {
    std::cerr << "usage error: " << e.what() << "\n"
              << "(run 'wcmgen --help' for the full synopsis)\n";
    code = 2;
  } catch (const io_error& e) {
    std::cerr << "input error: " << e.what() << "\n";
    code = 3;
  } catch (const config_error& e) {
    std::cerr << "config error: " << e.what() << "\n";
    code = 4;
  } catch (const wcm::error& e) {
    std::cerr << "internal error [" << to_string(e.code())
              << "]: " << e.what() << "\n";
    code = 5;
  } catch (const std::exception& e) {
    std::cerr << "internal error: " << e.what() << "\n";
    code = 5;
  } catch (...) {
    std::cerr << "internal error: unknown exception\n";
    code = 5;
  }
  // A failed trace export never changes the exit code (it only warns):
  // observability must not fail the run it observed.
  wcm::telemetry::flush_trace(&std::cerr);
  return code;
}
