// Parameter tuner: the engineering decision the paper's Sec. III-C
// discussion sets up — small E caps the worst case at w^2/4 total
// conflicts but costs more partitioning work; large E amortizes global
// work but risks ~w^2/2.  This example sweeps (E, b) on a device model and
// prints the random-input throughput, the worst-case throughput, and a
// robustness-weighted recommendation.
//
//   ./tuner [device] [k]     device in {m4000, 2080ti}, n = bE * 2^k

#include <iostream>
#include <string>

#include "core/numbers.hpp"
#include "gpusim/occupancy.hpp"
#include "sort/pairwise_sort.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"
#include "workload/inputs.hpp"

int main(int argc, char** argv) {
  using namespace wcm;

  const std::string device = argc > 1 ? argv[1] : "m4000";
  u32 k = 4;
  try {
    if (device != "m4000" && device != "2080ti") {
      throw parse_error("unknown device '" + device +
                        "' (valid: m4000, 2080ti)");
    }
    if (argc > 2) {
      k = static_cast<u32>(parse_unsigned("k", argv[2], 40));
    }
  } catch (const parse_error& e) {
    std::cerr << "usage: tuner [device] [k]: " << e.what() << "\n";
    return 2;
  }
  const auto dev =
      device == "2080ti" ? gpusim::rtx_2080ti() : gpusim::quadro_m4000();

  std::cout << "Tuning the pairwise merge sort for " << dev.name
            << " (n = bE * 2^" << k << ")\n\n";

  Table t({"E", "b", "occupancy", "rand_Me/s", "worst_Me/s", "slowdown",
           "worst_beta2"});
  double best_rand = 0.0, best_robust = 0.0;
  sort::SortConfig best_rand_cfg, best_robust_cfg;

  for (const u32 b : {128u, 256u, 512u}) {
    for (const u32 e : {9u, 11u, 13u, 15u, 17u, 19u, 21u, 23u}) {
      const auto regime = core::classify_e(32, e);
      if (regime != core::ERegime::small &&
          regime != core::ERegime::large) {
        continue;
      }
      const sort::SortConfig cfg{e, b, 32};
      const auto occ = gpusim::occupancy(dev, cfg.b, cfg.shared_bytes());
      if (occ.resident_blocks == 0) {
        continue;
      }
      const std::size_t n = cfg.tile() << k;
      const auto rand_in = workload::random_permutation(n, 7);
      const auto worst_in =
          workload::make_input(workload::InputKind::worst_case, n, cfg, 7);
      const auto rr = sort::pairwise_merge_sort(rand_in, cfg, dev);
      const auto rw = sort::pairwise_merge_sort(worst_in, cfg, dev);

      if (rr.throughput() > best_rand) {
        best_rand = rr.throughput();
        best_rand_cfg = cfg;
      }
      // Robust score: the throughput an adversary can force.
      if (rw.throughput() > best_robust) {
        best_robust = rw.throughput();
        best_robust_cfg = cfg;
      }
      t.new_row()
          .add(static_cast<std::size_t>(e))
          .add(static_cast<std::size_t>(b))
          .add(occ.fraction * 100.0, 0)
          .add(rr.throughput() / 1e6, 1)
          .add(rw.throughput() / 1e6, 1)
          .add(format_fixed((rw.seconds() - rr.seconds()) / rr.seconds() *
                                100.0,
                            1) +
               "%")
          .add(gpusim::beta2(rw.rounds.back().kernel), 2);
    }
  }
  t.print(std::cout);
  maybe_export_csv(t, "tuner");

  std::cout << "\nfastest on random inputs:     "
            << best_rand_cfg.to_string() << " (" << best_rand / 1e6
            << " Me/s)\n"
            << "best adversarial guarantee:   "
            << best_robust_cfg.to_string() << " (" << best_robust / 1e6
            << " Me/s forced minimum)\n"
            << "\nIf the two differ, the gap is the price of robustness the "
               "paper's construction exposes.\n";
  return 0;
}
