// Generator-digest conformance gate.  tests/golden/generator_digests.txt
// maps each generator configuration (w, E, b, k, seed, strategy, intra,
// max_attacked_rounds) to the FNV-1a digest of the generated keys and to
// their inversion count; n = bE * 2^k.  The test regenerates every row, so
// any change to the permutation the generator builds fails here, and it
// checks that the count the generator reports while building equals the
// general count_inversions() of its output.
//
// A digest may only change together with an explanation of why the
// construction now builds another permutation.  To rewrite the table, run
// this binary with WCM_GENERATOR_DIGESTS_OUT=<file>: it writes every row
// with the digest and count it computed.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/generator.hpp"
#include "util/hash.hpp"
#include "workload/inversions.hpp"

#ifndef WCM_GENERATOR_DIGEST_TABLE
#error "WCM_GENERATOR_DIGEST_TABLE must name the digest table"
#endif

namespace wcm::core {
namespace {

struct Row {
  u32 w = 0;
  u32 E = 0;
  u32 b = 0;
  u32 k = 0;
  u64 seed = 0;
  std::string strategy;
  int intra = 0;
  std::string rounds;  // "all" or a count of attacked global rounds
  std::string digest;
  u64 inversions = 0;

  [[nodiscard]] std::string key() const {
    std::ostringstream os;
    os << w << ' ' << E << ' ' << b << ' ' << k << ' ' << seed << ' '
       << strategy << ' ' << intra << ' ' << rounds;
    return os.str();
  }
};

std::vector<Row> read_table() {
  std::ifstream in(WCM_GENERATOR_DIGEST_TABLE);
  EXPECT_TRUE(in.good()) << "cannot open " << WCM_GENERATOR_DIGEST_TABLE;
  std::vector<Row> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream ls(line);
    Row r;
    ls >> r.w >> r.E >> r.b >> r.k >> r.seed >> r.strategy >> r.intra >>
        r.rounds >> r.digest >> r.inversions;
    EXPECT_FALSE(ls.fail()) << "malformed digest row '" << line << "'";
    rows.push_back(r);
  }
  return rows;
}

AlignmentStrategy strategy_named(const std::string& name) {
  if (name == "back-to-front") {
    return AlignmentStrategy::back_to_front;
  }
  if (name == "outside-in") {
    return AlignmentStrategy::outside_in;
  }
  EXPECT_EQ(name, "front-to-back") << "unknown strategy in digest table";
  return AlignmentStrategy::front_to_back;
}

TEST(GeneratorDigest, EveryRowMatchesAndCountsItsInversions) {
  const std::vector<Row> table = read_table();
  ASSERT_GE(table.size(), 40u);
  std::vector<Row> fresh;
  for (const Row& row : table) {
    const sort::SortConfig cfg{row.E, row.b, row.w};
    AttackOptions opts;
    opts.tile_shuffle_seed = row.seed;
    opts.small_e_strategy = strategy_named(row.strategy);
    opts.attack_intra_block = row.intra != 0;
    if (row.rounds != "all") {
      opts.max_attacked_rounds = std::stoul(row.rounds);
    }
    const std::size_t n = cfg.tile() << row.k;
    u64 reported = ~u64{0};
    const auto keys = worst_case_input(n, cfg, opts, &reported);
    ASSERT_EQ(keys.size(), n) << row.key();

    Row got = row;
    got.digest = digest_hex(
        fnv1a(fnv_offset_basis, keys.data(), keys.size() * sizeof(keys[0])));
    got.inversions = workload::count_inversions(keys);
    EXPECT_EQ(got.digest, row.digest) << "keys of '" << row.key() << "'";
    EXPECT_EQ(got.inversions, row.inversions)
        << "inversions of '" << row.key() << "'";
    EXPECT_EQ(reported, got.inversions)
        << "reported count of '" << row.key() << "'";
    // Not asking for the count builds the same keys.
    EXPECT_EQ(worst_case_input(n, cfg, opts), keys) << row.key();
    fresh.push_back(got);
  }
  if (const char* out = std::getenv("WCM_GENERATOR_DIGESTS_OUT")) {
    std::ofstream os(out);
    os << "# w E b k seed strategy intra rounds digest inversions\n";
    for (const Row& r : fresh) {
      os << r.key() << ' ' << r.digest << ' ' << r.inversions << '\n';
    }
  }
}

}  // namespace
}  // namespace wcm::core
