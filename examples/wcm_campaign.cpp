// wcm-campaign — campaign smoke benchmark: runs one small built-in grid
// three ways and records the evidence the runtime's determinism and caching
// claims rest on (docs/RUNTIME.md):
//
//   1. serial, cache disabled        -> reference output + serial wall clock
//   2. parallel, cold cache          -> must be byte-identical to (1)
//   3. parallel, warm cache          -> must be byte-identical and 100% hits
//
//   wcm-campaign [spec.json] [--threads n] [--out BENCH_campaign.json]
//
// With no spec argument a built-in smoke grid is used (pairwise thrust +
// mgpu, random vs worst-case, k = 1..4 at E=5, b=64).  Exits non-zero if
// any of the three runs disagree, so the binary doubles as a CI gate; the
// measured wall clocks land in BENCH_campaign.json.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "runtime/campaign.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"

namespace {

using namespace wcm;

constexpr const char* kSmokeSpec = R"({
  "name": "smoke",
  "device": "m4000",
  "seed": 7,
  "grid": [
    {"engine": "pairwise", "library": "thrust", "E": 5, "b": 64,
     "input": ["random", "worst-case"], "k": [1, 2, 3, 4]},
    {"engine": "pairwise", "library": "mgpu", "E": 3, "b": 64,
     "input": ["random", "worst-case"], "k": [1, 2, 3, 4]}
  ]
})";

int run(int argc, char** argv) {
  std::string spec_path;
  std::string out_path = "BENCH_campaign.json";
  u32 threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<u32>(parse_unsigned(arg, argv[++i], 4096));
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg.rfind("--", 0) != 0 && spec_path.empty()) {
      spec_path = arg;
    } else {
      std::cerr << "usage: wcm-campaign [spec.json] [--threads n] "
                   "[--out BENCH_campaign.json]\n";
      return 2;
    }
  }

  runtime::CampaignSpec spec =
      spec_path.empty() ? runtime::parse_campaign_spec(kSmokeSpec)
                        : runtime::load_campaign_spec(spec_path);

  const std::filesystem::path cache_path =
      std::filesystem::path(out_path).concat(".wcmc");
  std::filesystem::remove(cache_path);  // all runs start from a cold cache

  runtime::CampaignOptions serial;
  serial.threads = 1;
  serial.use_cache = false;
  std::cerr << "serial run (1 thread, no cache)...\n";
  const auto ref = runtime::run_campaign(spec, serial);

  runtime::CampaignOptions parallel;
  parallel.threads = threads;
  parallel.use_cache = true;
  parallel.cache_path = cache_path;
  std::cerr << "parallel run (cold cache)...\n";
  const auto cold = runtime::run_campaign(spec, parallel);
  std::cerr << "parallel run (warm cache)...\n";
  const auto warm = runtime::run_campaign(spec, parallel);
  std::filesystem::remove(cache_path);

  const bool identical = ref.json == cold.json && ref.json == warm.json;
  const bool all_hits =
      warm.cache_hits == warm.cells && warm.computed == 0 &&
      cold.computed == cold.cells;
  const double speedup =
      cold.wall_seconds > 0.0 ? ref.wall_seconds / cold.wall_seconds : 0.0;

  std::ofstream os(out_path);
  if (!os) {
    throw io_error("cannot open benchmark output", out_path);
  }
  os << "{\"campaign\":\"" << spec.name << "\""
     << ",\"cells\":" << ref.cells
     << ",\"serial_seconds\":" << ref.wall_seconds
     << ",\"parallel_seconds\":" << cold.wall_seconds
     << ",\"parallel_threads\":" << cold.threads
     << ",\"speedup\":" << speedup
     << ",\"warm_seconds\":" << warm.wall_seconds
     << ",\"warm_cache_hits\":" << warm.cache_hits
     << ",\"outputs_identical\":" << (identical ? "true" : "false")
     << ",\"cache_roundtrip_ok\":" << (all_hits ? "true" : "false") << "}\n";
  if (!os.flush()) {
    throw io_error("benchmark output write failed", out_path);
  }

  std::cout << "cells " << ref.cells << ": serial " << ref.wall_seconds
            << " s, parallel " << cold.wall_seconds << " s on "
            << cold.threads << " threads (speedup " << speedup
            << "x), warm rerun " << warm.wall_seconds << " s with "
            << warm.cache_hits << "/" << warm.cells << " cache hits\n"
            << "outputs identical across runs: " << (identical ? "yes" : "NO")
            << "\nwrote " << out_path << "\n";
  if (!identical || !all_hits) {
    std::cerr << "FAILED: determinism or cache contract violated\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const wcm::parse_error& e) {
    std::cerr << "wcm-campaign: usage error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "wcm-campaign: " << e.what() << "\n";
    return 5;
  }
}
