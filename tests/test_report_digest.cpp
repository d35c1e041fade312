// Report-digest conformance gate.  tests/golden/report_digests.txt maps
// each sort configuration (engine, E, b, tiles, input, layout, pad,
// device) to an FNV-1a digest of the canonical SortReport JSON and one of
// the sorted output; n = tiles * bE.  The test recomputes every row at
// WCM_THREADS 1 and 4, so any change to a simulated count, a modeled time
// or the sort itself — under any width of the block fan-out — fails here.
//
// A digest may only change together with an explanation of why the
// simulation now computes something else.  To rewrite the table, run this
// binary with WCM_REPORT_DIGESTS_OUT=<file>: it writes every row with the
// digests it computed (at the last thread count tried).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/layout.hpp"
#include "sort/registry.hpp"
#include "util/hash.hpp"
#include "workload/inputs.hpp"

#ifndef WCM_DIGEST_TABLE
#error "WCM_DIGEST_TABLE must name the digest table"
#endif

namespace wcm::sort {
namespace {

struct Row {
  std::string engine;
  u32 E = 0;
  u32 b = 0;
  std::size_t tiles = 0;
  std::string input;
  std::string layout;
  u32 pad = 0;
  std::string device;
  std::string report_digest;
  std::string output_digest;

  [[nodiscard]] std::string key() const {
    std::ostringstream os;
    os << engine << ' ' << E << ' ' << b << ' ' << tiles << ' ' << input
       << ' ' << layout << ' ' << pad << ' ' << device;
    return os.str();
  }
};

std::vector<Row> read_table() {
  std::ifstream in(WCM_DIGEST_TABLE);
  EXPECT_TRUE(in.good()) << "cannot open " << WCM_DIGEST_TABLE;
  std::vector<Row> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream ls(line);
    Row r;
    ls >> r.engine >> r.E >> r.b >> r.tiles >> r.input >> r.layout >> r.pad >>
        r.device >> r.report_digest >> r.output_digest;
    EXPECT_FALSE(ls.fail()) << "malformed digest row '" << line << "'";
    rows.push_back(r);
  }
  return rows;
}

/// A double in C99 hex-float form: exact, so a digest of it pins every bit.
std::string exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void write_stats(std::ostream& os, const dmm::MachineStats& s) {
  os << "{\"steps\":" << s.steps << ",\"requests\":" << s.requests
     << ",\"serialization_cycles\":" << s.serialization_cycles
     << ",\"replays\":" << s.replays
     << ",\"conflicting_accesses\":" << s.conflicting_accesses
     << ",\"max_bank_degree\":" << s.max_bank_degree << "}";
}

void write_kernel(std::ostream& os, const gpusim::KernelStats& k) {
  os << "{\"shared\":";
  write_stats(os, k.shared);
  os << ",\"shared_merge_reads\":";
  write_stats(os, k.shared_merge_reads);
  os << ",\"shared_search\":";
  write_stats(os, k.shared_search);
  os << ",\"global_transactions\":" << k.global_transactions
     << ",\"global_requests\":" << k.global_requests
     << ",\"binary_search_steps\":" << k.binary_search_steps
     << ",\"warp_merge_steps\":" << k.warp_merge_steps
     << ",\"register_compare_steps\":" << k.register_compare_steps
     << ",\"blocks_launched\":" << k.blocks_launched
     << ",\"elements_processed\":" << k.elements_processed << "}";
}

void write_time(std::ostream& os, const gpusim::KernelTime& t) {
  os << "{\"seconds\":\"" << exact(t.seconds) << "\",\"t_bandwidth\":\""
     << exact(t.t_bandwidth) << "\",\"t_latency\":\"" << exact(t.t_latency)
     << "\",\"t_shared\":\"" << exact(t.t_shared) << "\",\"t_compute\":\""
     << exact(t.t_compute) << "\",\"t_overhead\":\"" << exact(t.t_overhead)
     << "\"}";
}

/// Every field of a report, in a fixed order, doubles bit-exact.
std::string canonical_json(const SortReport& r) {
  std::ostringstream os;
  os << "{\"device\":\"" << r.device.name << "\",\"config\":{\"E\":"
     << r.config.E << ",\"b\":" << r.config.b << ",\"w\":" << r.config.w
     << ",\"padding\":" << r.config.padding << ",\"layout\":\""
     << gpusim::to_string(r.config.layout) << "\",\"realistic_refills\":"
     << (r.config.realistic_refills ? "true" : "false") << "},\"n\":" << r.n
     << ",\"rounds\":[";
  for (std::size_t i = 0; i < r.rounds.size(); ++i) {
    const gpusim::RoundStats& round = r.rounds[i];
    os << (i == 0 ? "" : ",") << "{\"name\":\"" << round.name
       << "\",\"modeled_seconds\":\"" << exact(round.modeled_seconds)
       << "\",\"kernel\":";
    write_kernel(os, round.kernel);
    os << "}";
  }
  os << "],\"totals\":";
  write_kernel(os, r.totals);
  os << ",\"total_time\":";
  write_time(os, r.total_time);
  os << "}";
  return os.str();
}

gpusim::Device device_named(const std::string& name) {
  if (name == "m4000") {
    return gpusim::quadro_m4000();
  }
  EXPECT_EQ(name, "2080ti") << "unknown device in digest table";
  return gpusim::rtx_2080ti();
}

workload::InputKind input_named(const std::string& name) {
  if (name == "worst-case") {
    return workload::InputKind::worst_case;
  }
  EXPECT_EQ(name, "random") << "unknown input in digest table";
  return workload::InputKind::random;
}

/// The row's configuration run through the registry, with fresh digests.
Row recompute(Row row) {
  const gpusim::Device dev = device_named(row.device);
  SortConfig cfg{row.E, row.b, dev.warp_size};
  cfg.padding = row.pad;
  cfg.layout = gpusim::parse_layout_kind(row.layout);
  const auto input = workload::make_input(input_named(row.input),
                                          row.tiles * cfg.tile(), cfg, 1);
  std::vector<word> output;
  const SortReport report =
      launch(find_runnable(row.engine), input, cfg, dev, {}, &output);
  row.report_digest = digest_hex(fnv1a(canonical_json(report)));
  row.output_digest = digest_hex(
      fnv1a(fnv_offset_basis, output.data(), output.size() * sizeof(word)));
  return row;
}

TEST(ReportDigest, EveryRowMatchesAtOneAndFourThreads) {
  const std::vector<Row> table = read_table();
  ASSERT_GE(table.size(), 20u);
  const char* saved = std::getenv("WCM_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  std::vector<Row> fresh;
  for (const char* threads : {"1", "4"}) {
    ASSERT_EQ(::setenv("WCM_THREADS", threads, 1), 0);
    fresh.clear();
    for (const Row& row : table) {
      fresh.push_back(recompute(row));
      const Row& got = fresh.back();
      EXPECT_EQ(got.report_digest, row.report_digest)
          << "report of '" << row.key() << "' at WCM_THREADS=" << threads;
      EXPECT_EQ(got.output_digest, row.output_digest)
          << "output of '" << row.key() << "' at WCM_THREADS=" << threads;
    }
  }
  if (saved != nullptr) {
    ::setenv("WCM_THREADS", restore.c_str(), 1);
  } else {
    ::unsetenv("WCM_THREADS");
  }
  if (const char* out = std::getenv("WCM_REPORT_DIGESTS_OUT")) {
    std::ofstream os(out);
    os << "# engine E b tiles input layout pad device report output\n";
    for (const Row& r : fresh) {
      os << r.key() << ' ' << r.report_digest << ' ' << r.output_digest
         << '\n';
    }
  }
}

}  // namespace
}  // namespace wcm::sort
