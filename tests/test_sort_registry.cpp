// The engine registry (sort/registry.hpp): the one engine table every front
// end reads.  Pins its names and order (the prover's `--engine all` and the
// serve_mixed benchmark's seeded draws index into it), shows that launching
// through the table is byte-identical to calling each engine directly —
// bitonic's E = 2 / power-of-two normalisation included — and pins the
// documented parameter ranges and shape rules of check().

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/json_export.hpp"
#include "analyze/symbolic/prove.hpp"
#include "gpusim/device.hpp"
#include "sort/bitonic.hpp"
#include "sort/multiway.hpp"
#include "sort/radix.hpp"
#include "sort/registry.hpp"
#include "sort/shearsort.hpp"
#include "util/error.hpp"
#include "workload/inputs.hpp"

namespace wcm::sort {
namespace {

const std::vector<std::string> kNames = {
    "blocksort", "block-merge", "pairwise", "multiway",
    "bitonic",   "radix",       "scan",     "shearsort"};

std::string json_of(const SortReport& report) {
  std::ostringstream os;
  analysis::write_report_json(os, report);
  return os.str();
}

TEST(Registry, NamesAndOrderAreTheEightEngines) {
  std::vector<std::string> names;
  for (const EngineInfo& e : engines()) {
    EXPECT_EQ(&engine_info(e.id), &e) << e.name;  // rows in EngineId order
    EXPECT_EQ(&find_engine(e.name), &e);
    EXPECT_NE(e.describe, nullptr) << e.name;
    names.emplace_back(e.name);
  }
  EXPECT_EQ(names, kNames);
  EXPECT_EQ(analyze::symbolic::all_engines(), kNames);

  std::vector<std::string> runnable;
  for (const EngineInfo& e : engines()) {
    if (e.run != nullptr) {
      runnable.emplace_back(e.name);
    }
  }
  EXPECT_EQ(runnable, (std::vector<std::string>{"pairwise", "multiway",
                                                "bitonic", "radix",
                                                "shearsort"}));
}

TEST(Registry, UnknownAndDescribeOnlyNamesListTheTable) {
  try {
    (void)find_engine("quicksort");
    FAIL() << "unknown engine accepted";
  } catch (const parse_error& e) {
    for (const std::string& name : kNames) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << name;
    }
  }
  EXPECT_EQ(&find_runnable("shearsort"), &engine_info(EngineId::shearsort));
  for (const char* name : {"blocksort", "block-merge", "scan"}) {
    EXPECT_THROW((void)find_runnable(name), parse_error) << name;
  }
}

TEST(Registry, LaunchIsByteIdenticalToTheDirectCall) {
  const auto dev = gpusim::quadro_m4000();
  SortConfig cfg{5, 64, 32};
  const std::size_t n = cfg.tile() << 2;
  const auto input = workload::random_permutation(n, 17);
  EngineParams params;
  params.library = MergeSortLibrary::mgpu;
  params.ways = 3;
  params.digit_bits = 6;

  const auto via = [&](EngineId id) {
    std::vector<word> out;
    const std::string json =
        json_of(launch(engine_info(id), input, cfg, dev, params, &out));
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
    return json;
  };
  EXPECT_EQ(via(EngineId::pairwise),
            json_of(pairwise_merge_sort(input, cfg, dev,
                                        MergeSortLibrary::mgpu)));
  EXPECT_EQ(via(EngineId::multiway),
            json_of(multiway_merge_sort(input, cfg, dev, 3)));
  EXPECT_EQ(via(EngineId::radix), json_of(radix_sort(input, cfg, dev, 6)));
  EXPECT_EQ(via(EngineId::shearsort), json_of(shearsort(input, cfg, dev)));

  // Bitonic runs at E = 2 on the largest power-of-two prefix: 1280 keys
  // launch as the first 1024.
  SortConfig bitonic_cfg = cfg;
  bitonic_cfg.E = 2;
  EXPECT_EQ(launch_config(engine_info(EngineId::bitonic), cfg).E, 2u);
  EXPECT_EQ(via(EngineId::bitonic),
            json_of(bitonic_sort(std::span(input).first(1024), bitonic_cfg,
                                 dev)));
}

TEST(Registry, CheckAcceptsAndRejectsTheDocumentedRanges) {
  const SortConfig cfg{5, 64, 32};
  const EngineInfo& multiway = engine_info(EngineId::multiway);
  const EngineInfo& radix = engine_info(EngineId::radix);
  for (const u32 ways : {2u, 4u, 64u}) {
    EXPECT_NO_THROW(check(multiway, cfg, {.ways = ways})) << ways;
  }
  for (const u32 ways : {0u, 1u, 65u}) {
    EXPECT_THROW(check(multiway, cfg, {.ways = ways}), config_error) << ways;
  }
  for (const u32 bits : {1u, 4u, 16u}) {
    EXPECT_NO_THROW(check(radix, cfg, {.digit_bits = bits})) << bits;
  }
  for (const u32 bits : {0u, 17u}) {
    EXPECT_THROW(check(radix, cfg, {.digit_bits = bits}), config_error)
        << bits;
  }
  // Only the parameter an engine reads is checked.
  EXPECT_NO_THROW(check(engine_info(EngineId::pairwise), cfg,
                        {.ways = 0, .digit_bits = 0}));
  EXPECT_TRUE(param_error(multiway, {.ways = 2}).empty());
  EXPECT_EQ(param_error(multiway, {.ways = 1}),
            "ways must be in [2, 64], got 1");
}

TEST(Registry, ShapeRulesFollowEachRow) {
  const EngineInfo& pairwise = engine_info(EngineId::pairwise);
  const EngineInfo& scan = engine_info(EngineId::scan);
  const EngineInfo& shearsort = engine_info(EngineId::shearsort);
  EXPECT_EQ(shape_error(pairwise, 32, 64), nullptr);
  EXPECT_EQ(shape_error(pairwise, 64, 64), nullptr);  // b = w describes
  EXPECT_EQ(shape_error(pairwise, 3, 8), nullptr);    // any warp width
  EXPECT_STREQ(shape_error(pairwise, 64, 32), "block smaller than the warp");
  EXPECT_STREQ(shape_error(pairwise, 32, 48),
               "block size not a power of two");
  EXPECT_STREQ(shape_error(scan, 15, 64), "warp size not a power of two");
  EXPECT_STREQ(shape_error(shearsort, 3, 8),
               "block not a multiple of the warp");
  EXPECT_EQ(shape_error(shearsort, 4, 8), nullptr);

  SortConfig bad{5, 64, 3};
  EXPECT_THROW(check(shearsort, bad, {}), config_error);
  EXPECT_NO_THROW(check(pairwise, bad, {}));
}

TEST(Registry, LaunchTypesEveryPreconditionAsConfiguration) {
  const auto dev = gpusim::quadro_m4000();
  const SortConfig cfg{5, 64, 32};
  const auto input = workload::random_permutation(cfg.tile() * 2, 1);
  const EngineInfo& pairwise = engine_info(EngineId::pairwise);
  // Describe-only engine, device warp mismatch, partial tile.
  EXPECT_THROW((void)launch(engine_info(EngineId::scan), input, cfg, dev),
               config_error);
  EXPECT_THROW((void)launch(pairwise, input, SortConfig{5, 64, 16}, dev),
               config_error);
  EXPECT_THROW((void)launch(pairwise, std::span(input).first(100), cfg, dev),
               config_error);
  EXPECT_THROW((void)launch(engine_info(EngineId::radix), input, cfg, dev,
                            {.digit_bits = 0}),
               config_error);
}

}  // namespace
}  // namespace wcm::sort
