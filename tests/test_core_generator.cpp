// Tests for the full worst-case input generator: permutation validity, the
// unmerge round-trip through the merge tree and its block-mask tiling, the
// inversion count it reports, the attack actually landing (exact beta_2 =
// predicted on every attacked round), family generation, and the
// intra-block extension.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "core/conflict_model.hpp"
#include "core/generator.hpp"
#include "core/unmerge.hpp"
#include "core/warp_construction.hpp"
#include "mergepath/serial_merge.hpp"
#include "sort/pairwise_sort.hpp"
#include "util/check.hpp"
#include "workload/inputs.hpp"
#include "workload/inversions.hpp"

namespace wcm::core {
namespace {

sort::SortConfig cfg_small() { return sort::SortConfig{5, 64, 32}; }

TEST(Generator, ProducesPermutation) {
  const auto cfg = cfg_small();
  for (const std::size_t k : {1u, 2u, 4u}) {
    const auto v = worst_case_input(cfg.tile() << k, cfg);
    EXPECT_TRUE(workload::is_permutation_of_iota(v)) << "k=" << k;
  }
}

TEST(Generator, SizeContract) {
  const auto cfg = cfg_small();
  EXPECT_THROW((void)worst_case_input(cfg.tile(), cfg), contract_error);
  EXPECT_THROW((void)worst_case_input(cfg.tile() * 3, cfg), contract_error);
  EXPECT_THROW((void)worst_case_input(cfg.tile() * 2 + 1, cfg),
               contract_error);
}

TEST(Generator, RejectsNonCoprimeE) {
  sort::SortConfig cfg{8, 64, 32};  // E = 8: power-of-two regime
  EXPECT_THROW((void)worst_case_input(cfg.tile() * 2, cfg), contract_error);
}

TEST(Generator, DeterministicWithoutSeed) {
  const auto cfg = cfg_small();
  const auto a = worst_case_input(cfg.tile() * 4, cfg);
  const auto b = worst_case_input(cfg.tile() * 4, cfg);
  EXPECT_EQ(a, b);
}

TEST(Generator, FamilyMembersDifferButAllAttack) {
  const auto cfg = cfg_small();
  const std::size_t n = cfg.tile() * 4;
  AttackOptions o1, o2;
  o1.tile_shuffle_seed = 1;
  o2.tile_shuffle_seed = 2;
  const auto v1 = worst_case_input(n, cfg, o1);
  const auto v2 = worst_case_input(n, cfg, o2);
  EXPECT_NE(v1, v2);
  EXPECT_TRUE(workload::is_permutation_of_iota(v1));
  EXPECT_TRUE(workload::is_permutation_of_iota(v2));

  const auto dev = gpusim::quadro_m4000();
  const double target = predicted_beta2(cfg.w, cfg.E);
  for (const auto& v : {v1, v2}) {
    const auto report = sort::pairwise_merge_sort(v, cfg, dev);
    for (std::size_t i = 1; i < report.rounds.size(); ++i) {
      EXPECT_NEAR(gpusim::beta2(report.rounds[i].kernel), target, 1e-9)
          << "member seed round " << i;
    }
  }
}

// The central end-to-end claim: on the constructed input, every global
// merge round's lock-step merge reads serialize exactly as Theorem 3 / 9
// predict — beta_2 equals aligned(w, E) / E on the nose.
TEST(Generator, EveryGlobalRoundHitsPredictedBeta2) {
  for (const sort::SortConfig cfg :
       {sort::SortConfig{5, 64, 32},      // small E
        sort::SortConfig{7, 128, 32},     // small E, more warps
        sort::SortConfig{17, 64, 32}}) {  // large E
    const std::size_t n = cfg.tile() * 8;
    const auto input = worst_case_input(n, cfg);
    const auto report =
        sort::pairwise_merge_sort(input, cfg, gpusim::quadro_m4000());
    const double target = predicted_beta2(cfg.w, cfg.E);
    ASSERT_EQ(report.rounds.size(), 4u);
    for (std::size_t i = 1; i < report.rounds.size(); ++i) {
      EXPECT_NEAR(gpusim::beta2(report.rounds[i].kernel), target, 1e-9)
          << cfg.to_string() << " round " << i;
    }
  }
}

TEST(Generator, SortedOutputIsCorrect) {
  const auto cfg = cfg_small();
  const std::size_t n = cfg.tile() * 8;
  const auto input = worst_case_input(n, cfg);
  std::vector<dmm::word> out;
  (void)sort::pairwise_merge_sort(input, cfg, gpusim::quadro_m4000(),
                                  sort::MergeSortLibrary::thrust, &out);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i], static_cast<dmm::word>(i));
  }
}

TEST(Generator, IntraBlockExtensionAttacksBaseCase) {
  const auto cfg = cfg_small();  // tile 320, w*E = 160: last intra round
  const std::size_t n = cfg.tile() * 4;
  AttackOptions with_intra;
  with_intra.attack_intra_block = true;
  const auto v_intra = worst_case_input(n, cfg, with_intra);
  const auto v_plain = worst_case_input(n, cfg);
  EXPECT_TRUE(workload::is_permutation_of_iota(v_intra));

  const auto dev = gpusim::quadro_m4000();
  const auto r_intra = sort::pairwise_merge_sort(v_intra, cfg, dev);
  const auto r_plain = sort::pairwise_merge_sort(v_plain, cfg, dev);
  // The extension adds conflicts in the block sort without giving up any in
  // the global rounds.
  EXPECT_GT(r_intra.rounds[0].kernel.shared_merge_reads.replays,
            r_plain.rounds[0].kernel.shared_merge_reads.replays);
  for (std::size_t i = 1; i < r_intra.rounds.size(); ++i) {
    EXPECT_EQ(r_intra.rounds[i].kernel.shared_merge_reads.replays,
              r_plain.rounds[i].kernel.shared_merge_reads.replays);
  }
}

TEST(Generator, StrategyVariantsAllAttackEqually) {
  // Each Lemma 2 strategy yields a *different* permutation whose attacked
  // rounds nevertheless serialize identically (beta_2 = E).
  const auto cfg = cfg_small();
  const std::size_t n = cfg.tile() * 4;
  const auto dev = gpusim::quadro_m4000();
  std::vector<std::vector<dmm::word>> inputs;
  for (const auto s :
       {AlignmentStrategy::front_to_back, AlignmentStrategy::back_to_front,
        AlignmentStrategy::outside_in}) {
    AttackOptions opts;
    opts.small_e_strategy = s;
    inputs.push_back(worst_case_input(n, cfg, opts));
    const auto report = sort::pairwise_merge_sort(inputs.back(), cfg, dev);
    for (std::size_t i = 1; i < report.rounds.size(); ++i) {
      EXPECT_NEAR(gpusim::beta2(report.rounds[i].kernel),
                  predicted_beta2(cfg.w, cfg.E), 1e-9)
          << to_string(s) << " round " << i;
    }
  }
  EXPECT_NE(inputs[0], inputs[1]);
  EXPECT_NE(inputs[0], inputs[2]);
  EXPECT_NE(inputs[1], inputs[2]);
}

TEST(Generator, RelaxedAttackDialsConflictsDown) {
  // Sec. V item 3: attacking only the last m global rounds yields
  // permutations with proportionally fewer conflicts.  The attacked rounds
  // still hit beta_2 = E exactly; the released rounds drop to ~1.
  const auto cfg = cfg_small();
  const std::size_t n = cfg.tile() * 8;  // 3 global rounds
  const auto dev = gpusim::quadro_m4000();
  const double target = predicted_beta2(cfg.w, cfg.E);

  for (const std::size_t m : {0u, 1u, 2u, 3u}) {
    AttackOptions opts;
    opts.max_attacked_rounds = m;
    const auto input = worst_case_input(n, cfg, opts);
    const auto report = sort::pairwise_merge_sort(input, cfg, dev);
    ASSERT_EQ(report.rounds.size(), 4u);
    // Rounds execute first-to-last; the dial attacks the *last* m.
    for (std::size_t i = 1; i < report.rounds.size(); ++i) {
      const bool should_attack = i > report.rounds.size() - 1 - m;
      const double beta2 = gpusim::beta2(report.rounds[i].kernel);
      if (should_attack) {
        EXPECT_NEAR(beta2, target, 1e-9) << "m=" << m << " round " << i;
      } else {
        EXPECT_LT(beta2, target / 2.0) << "m=" << m << " round " << i;
      }
    }
  }
}

TEST(Generator, RelaxedAttackTotalsScaleWithRounds) {
  const auto cfg = cfg_small();
  const std::size_t n = cfg.tile() * 8;
  const auto dev = gpusim::quadro_m4000();
  std::vector<std::size_t> totals;
  for (const std::size_t m : {0u, 1u, 2u, 3u}) {
    AttackOptions opts;
    opts.max_attacked_rounds = m;
    const auto input = worst_case_input(n, cfg, opts);
    const auto report = sort::pairwise_merge_sort(input, cfg, dev);
    std::size_t merge_replays = 0;
    for (std::size_t i = 1; i < report.rounds.size(); ++i) {
      merge_replays += report.rounds[i].kernel.shared_merge_reads.replays;
    }
    totals.push_back(merge_replays);
  }
  for (std::size_t i = 1; i < totals.size(); ++i) {
    EXPECT_GT(totals[i], totals[i - 1]) << "m=" << i;
  }
}

TEST(Generator, AttackedRoundCount) {
  const auto cfg = cfg_small();
  EXPECT_EQ(attacked_round_count(cfg.tile() * 2, cfg), 1u);
  EXPECT_EQ(attacked_round_count(cfg.tile() * 16, cfg), 4u);
  EXPECT_THROW((void)attacked_round_count(cfg.tile() * 3, cfg),
               contract_error);
}

TEST(Generator, TopSplitRemergesToIdentity) {
  // The one split of a two-tile input: its unshuffled tiles are the
  // sorted A and B runs, and a stable merge of them is the identity — the
  // invariant every level of the construction relies on.
  for (const sort::SortConfig cfg :
       {sort::SortConfig{5, 64, 32}, sort::SortConfig{17, 256, 32}}) {
    const std::size_t tile = cfg.tile();
    const auto v = worst_case_input(2 * tile, cfg);
    const std::span<const dmm::word> a(v.data(), tile);
    const std::span<const dmm::word> b(v.data() + tile, tile);
    EXPECT_TRUE(mergepath::is_sorted_run(a)) << cfg.to_string();
    EXPECT_TRUE(mergepath::is_sorted_run(b)) << cfg.to_string();
    const auto merged = mergepath::serial_merge(a, b);
    for (std::size_t i = 0; i < merged.size(); ++i) {
      ASSERT_EQ(merged[i], static_cast<dmm::word>(i)) << cfg.to_string();
    }
  }
}

TEST(Generator, TopRoundTilesTheBlockMask) {
  // Attacking only the last round of a four-tile input leaves the lower
  // level neutral, so each half is one sorted run, and output rank i came
  // from A exactly where the block mask, tiled across the pair's blocks,
  // says so.
  const auto cfg = cfg_small();
  const std::size_t tile = cfg.tile();
  const auto l = worst_case_warp(cfg.w, cfg.E, WarpSide::L);
  const auto r = worst_case_warp(cfg.w, cfg.E, WarpSide::R);
  const auto block = attack_block_mask(cfg, l, r);
  AttackOptions last_only;
  last_only.max_attacked_rounds = 1;
  const auto v = worst_case_input(4 * tile, cfg, last_only);
  const std::span<const dmm::word> a(v.data(), 2 * tile);
  ASSERT_TRUE(mergepath::is_sorted_run(a));
  ASSERT_TRUE(mergepath::is_sorted_run(
      std::span<const dmm::word>(v.data() + 2 * tile, 2 * tile)));
  for (std::size_t rank = 0; rank < v.size(); ++rank) {
    const bool from_a = std::binary_search(a.begin(), a.end(),
                                           static_cast<dmm::word>(rank));
    EXPECT_EQ(from_a, block[rank % tile]) << "rank " << rank;
  }
}

TEST(Generator, ReportsTheInversionsOfItsOutput) {
  // The count taken during construction, across leaf sizes from under one
  // 64-rank word (w = 16, E = 3 with the intra-block extension: 48-key
  // leaves) to several words, with and without the leaf shuffle.
  struct Case {
    sort::SortConfig cfg;
    bool intra;
    u64 seed;
  };
  for (const Case& c : {Case{{3, 32, 16}, true, 5}, Case{{3, 32, 16}, false, 5},
                        Case{{5, 64, 32}, false, 0}, Case{{5, 64, 32}, true, 9},
                        Case{{33, 128, 64}, true, 2}}) {
    AttackOptions opts;
    opts.attack_intra_block = c.intra;
    opts.tile_shuffle_seed = c.seed;
    const std::size_t n = c.cfg.tile() * 4;
    u64 reported = 0;
    const auto v = worst_case_input(n, c.cfg, opts, &reported);
    EXPECT_EQ(reported, workload::count_inversions(v))
        << c.cfg.to_string() << " intra " << c.intra << " seed " << c.seed;
    EXPECT_EQ(worst_case_input(n, c.cfg, opts), v) << c.cfg.to_string();
  }
}

TEST(Generator, NoAttackOptionYieldsNeutralInput) {
  const auto cfg = cfg_small();
  AttackOptions off;
  off.attack_global_rounds = false;
  const auto v = worst_case_input(cfg.tile() * 4, cfg, off);
  // Neutral masks all the way down: the input is fully sorted.
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

}  // namespace
}  // namespace wcm::core
