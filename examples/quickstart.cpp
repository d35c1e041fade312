// Quickstart: construct a worst-case input for the Thrust merge sort
// parameters, sort it (and a random baseline) on the simulated GPU, and
// print what the attack did.
//
//   ./quickstart [E] [b] [k]
//
// defaults: E=15, b=512 (Thrust on the Quadro M4000), n = bE * 2^5.

#include <iostream>
#include <limits>

#include "analysis/series.hpp"
#include "core/conflict_model.hpp"
#include "core/generator.hpp"
#include "sort/pairwise_sort.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"
#include "workload/inputs.hpp"

int main(int argc, char** argv) {
  using namespace wcm;

  sort::SortConfig cfg = sort::params_15_512();
  u32 k = 5;
  constexpr u64 kU32Max = std::numeric_limits<u32>::max();
  try {
    if (argc > 1) {
      cfg.E = static_cast<u32>(parse_unsigned("E", argv[1], kU32Max));
    }
    if (argc > 2) {
      cfg.b = static_cast<u32>(parse_unsigned("b", argv[2], kU32Max));
    }
    if (argc > 3) {
      k = static_cast<u32>(parse_unsigned("k", argv[3], 40));
    }
  } catch (const parse_error& e) {
    std::cerr << "usage: quickstart [E] [b] [k]: " << e.what() << "\n";
    return 2;
  }
  cfg.validate();
  const std::size_t n = cfg.tile() << k;
  const auto dev = gpusim::quadro_m4000();

  std::cout << "GPU pairwise merge sort, " << dev.name << ", "
            << cfg.to_string() << ", n = " << n << "\n\n";

  // 1. The per-warp construction (Theorem 3 or 9).
  const auto warp = core::worst_case_warp(cfg.w, cfg.E);
  const auto eval =
      core::evaluate_warp(warp, core::alignment_window_start(cfg.w, cfg.E));
  std::cout << "Per-warp construction: " << eval.aligned
            << " aligned elements (closed form "
            << core::aligned_worst_case(cfg.w, cfg.E) << "), beta_2 = "
            << core::predicted_beta2(cfg.w, cfg.E)
            << ", effective parallelism " << cfg.w << " -> "
            << core::effective_parallelism(cfg.w, cfg.E)
            << " threads per warp\n\n";

  // 2. Generate the full adversarial permutation and a random baseline.
  const auto worst =
      workload::make_input(workload::InputKind::worst_case, n, cfg, 1);
  const auto random =
      workload::make_input(workload::InputKind::random, n, cfg, 1);

  // 3. Sort both on the simulator.
  const auto r_worst = sort::pairwise_merge_sort(worst, cfg, dev);
  const auto r_random = sort::pairwise_merge_sort(random, cfg, dev);

  std::cout << "random input:     " << r_random.summary() << "\n";
  std::cout << "worst-case input: " << r_worst.summary() << "\n\n";
  std::cout << "slowdown: "
            << analysis::slowdown_percent(r_random.seconds(),
                                          r_worst.seconds())
            << "% (" << core::attacked_round_count(n, cfg)
            << " attacked merge rounds)\n";
  return 0;
}
