// Adversarial input bank: generate worst-case permutations for a set of
// (E, b) configurations and write them to disk (binary WCMI + CSV), ready
// to be fed to a real GPU harness (e.g. a thrust::sort benchmark).
//
//   ./adversarial_bank [out_dir] [k]
//
// defaults: out_dir = ./bank, n = bE * 2^4 per configuration.  The bank
// covers the paper's three parameter sets plus every co-prime E < 32 at
// b = 64 (one file per E), demonstrating the "for every value of E"
// claim of the abstract.

#include <filesystem>
#include <iostream>

#include "core/generator.hpp"
#include "core/numbers.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"
#include "workload/inputs.hpp"
#include "workload/io.hpp"

int main(int argc, char** argv) {
  using namespace wcm;

  const std::filesystem::path out_dir = argc > 1 ? argv[1] : "bank";
  u32 k = 4;
  try {
    if (argc > 2) {
      k = static_cast<u32>(parse_unsigned("k", argv[2], 40));
    }
  } catch (const parse_error& e) {
    std::cerr << "usage: adversarial_bank [out_dir] [k]: " << e.what()
              << "\n";
    return 2;
  }
  std::filesystem::create_directories(out_dir);

  std::vector<sort::SortConfig> configs = {
      sort::params_15_512(), sort::params_17_256(), sort::params_15_128()};
  for (u32 e = 3; e < 32; e += 2) {
    if (core::classify_e(32, e) == core::ERegime::small ||
        core::classify_e(32, e) == core::ERegime::large) {
      configs.push_back(sort::SortConfig{e, 64, 32});
    }
  }

  for (const auto& cfg : configs) {
    const std::size_t n = cfg.tile() << k;
    const auto input = core::worst_case_input(n, cfg);
    const std::string stem =
        "worst_E" + std::to_string(cfg.E) + "_b" + std::to_string(cfg.b) +
        "_n" + std::to_string(n);
    workload::write_binary(out_dir / (stem + ".wcmi"), input);
    workload::write_csv(out_dir / (stem + ".csv"), input);
    std::cout << "wrote " << (out_dir / stem).string() << ".{wcmi,csv}  ("
              << n << " keys, " << core::attacked_round_count(n, cfg)
              << " attacked rounds, predicted beta_2 = "
              << static_cast<double>(core::aligned_worst_case(cfg.w, cfg.E)) / cfg.E
              << ")\n";
  }

  std::cout << "\nbank of " << configs.size()
            << " adversarial inputs written to " << out_dir.string() << "\n";
  return 0;
}
