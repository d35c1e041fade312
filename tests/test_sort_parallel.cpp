// The block fan-out inside one sort (util/parallel.hpp, sort/rounds.hpp):
// a pairwise or multiway sort simulated with helper threads must produce
// the same report and output as the same sort run inline on a one-thread
// runtime::ThreadPool worker, for every engine, input, E regime, layout
// and accounting mode, and with an unpaired trailing run.  A traced sort
// (always inline) matches an untraced one, and a fault injected on a
// helper surfaces on the caller without terminating the process.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gpusim/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "sort/multiway.hpp"
#include "sort/pairwise_sort.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/parallel.hpp"
#include "workload/inputs.hpp"

namespace wcm::sort {
namespace {

constexpr u32 kWidth = 4;

/// Every sort in this file fans out over kWidth workers, whatever the
/// host's core count (ctest runs each TEST in its own process).
class SortParallel : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_EQ(::setenv("WCM_THREADS", "4", 1), 0); }
  void TearDown() override { ASSERT_EQ(::unsetenv("WCM_THREADS"), 0); }
};

struct SortRun {
  SortReport report;
  std::vector<word> out;
};

enum class Engine { pairwise, multiway3, multiway4 };

SortRun run_sort(Engine engine, const std::vector<word>& input,
             const SortConfig& cfg) {
  const auto dev = gpusim::quadro_m4000();
  SortRun r;
  switch (engine) {
    case Engine::pairwise:
      r.report = pairwise_merge_sort(input, cfg, dev,
                                     MergeSortLibrary::thrust, &r.out);
      break;
    case Engine::multiway3:
      r.report = multiway_merge_sort(input, cfg, dev, 3, &r.out);
      break;
    case Engine::multiway4:
      r.report = multiway_merge_sort(input, cfg, dev, 4, &r.out);
      break;
  }
  return r;
}

/// Run `fn` on the single worker of a runtime::ThreadPool, where a sort
/// must not fan out.
template <typename Fn>
auto on_pool_worker(const Fn& fn) -> decltype(fn()) {
  decltype(fn()) result;
  std::exception_ptr error;
  {
    runtime::ThreadPool pool(1);
    pool.submit([&] {
      try {
        EXPECT_EQ(parallel_width(64), 1u);
        result = fn();
      } catch (...) {
        error = std::current_exception();
      }
    });
  }
  if (error) {
    std::rethrow_exception(error);
  }
  return result;
}

std::string describe(const dmm::MachineStats& m) {
  std::ostringstream os;
  os << m.steps << ' ' << m.requests << ' ' << m.serialization_cycles << ' '
     << m.replays << ' ' << m.conflicting_accesses << ' '
     << m.max_bank_degree;
  return os.str();
}

/// Every counter of a kernel, the phase subsets' worst banks included.
std::string describe(const gpusim::KernelStats& k) {
  std::ostringstream os;
  os << describe(k.shared) << " | " << describe(k.shared_merge_reads)
     << " | " << describe(k.shared_search) << " | " << k.global_transactions
     << ' ' << k.global_requests << ' ' << k.binary_search_steps << ' '
     << k.warp_merge_steps << ' ' << k.register_compare_steps << ' '
     << k.blocks_launched << ' ' << k.elements_processed;
  return os.str();
}

void expect_same(const SortReport& a, const SortReport& b,
                 const std::string& what) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size()) << what;
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].name, b.rounds[i].name) << what;
    EXPECT_EQ(describe(a.rounds[i].kernel), describe(b.rounds[i].kernel))
        << what << " round " << a.rounds[i].name;
    EXPECT_EQ(a.rounds[i].modeled_seconds, b.rounds[i].modeled_seconds)
        << what;
  }
  EXPECT_EQ(describe(a.totals), describe(b.totals)) << what;
  EXPECT_EQ(a.total_time.seconds, b.total_time.seconds) << what;
  EXPECT_EQ(a.n, b.n) << what;
}

/// Fan-out on this thread against inline on a pool worker, over both E
/// regimes, the four layouts and both merge-read accountings.
void check_engine(Engine engine, workload::InputKind kind,
                  std::size_t tiles) {
  struct Layout {
    u32 padding;
    gpusim::LayoutKind kind;
    const char* name;
  };
  const Layout layouts[] = {{0, gpusim::LayoutKind::linear, "linear"},
                            {1, gpusim::LayoutKind::linear, "padded"},
                            {0, gpusim::LayoutKind::xor_swizzle, "xor"},
                            {0, gpusim::LayoutKind::rotation, "rotation"}};
  ASSERT_EQ(parallel_width(tiles), std::min<std::size_t>(kWidth, tiles));
  for (const u32 e : {7u, 17u}) {  // small-E and large-E regimes at w = 32
    for (const Layout& layout : layouts) {
      for (const bool refills : {false, true}) {
        SortConfig cfg{e, 64, 32};
        cfg.padding = layout.padding;
        cfg.layout = layout.kind;
        cfg.realistic_refills = refills;
        const auto input = workload::make_input(kind, cfg.tile() * tiles,
                                                cfg, 40 + e);
        const std::string what = "E=" + std::to_string(e) + " " +
                                 layout.name +
                                 (refills ? " refills" : " consumed");
        const SortRun fanned = run_sort(engine, input, cfg);
        const SortRun serial =
            on_pool_worker([&] { return run_sort(engine, input, cfg); });
        expect_same(fanned.report, serial.report, what);
        EXPECT_EQ(fanned.out, serial.out) << what;
        EXPECT_TRUE(std::is_sorted(fanned.out.begin(), fanned.out.end()))
            << what;
      }
    }
  }
}

TEST_F(SortParallel, PairwiseRandomUnpairedTrailingRun) {
  check_engine(Engine::pairwise, workload::InputKind::random, 7);
}

TEST_F(SortParallel, PairwiseWorstCase) {
  check_engine(Engine::pairwise, workload::InputKind::worst_case, 8);
}

TEST_F(SortParallel, MultiwayRandomUnevenGroups) {
  check_engine(Engine::multiway4, workload::InputKind::random, 7);
}

TEST_F(SortParallel, MultiwayWorstCase) {
  check_engine(Engine::multiway3, workload::InputKind::worst_case, 8);
}

TEST_F(SortParallel, TracedSortMatchesUntracedTotals) {
  for (const Engine engine : {Engine::pairwise, Engine::multiway4}) {
    SortConfig cfg{5, 64, 32};
    const auto input = workload::make_input(workload::InputKind::worst_case,
                                            cfg.tile() * 8, cfg, 3);
    const SortRun plain = run_sort(engine, input, cfg);
    gpusim::TraceRecorder recorder(cfg.w);
    cfg.trace_sink = &recorder;
    const SortRun traced = run_sort(engine, input, cfg);
    expect_same(plain.report, traced.report, "traced");
    EXPECT_EQ(plain.out, traced.out);
    const gpusim::SharedLayout layout{cfg.w, cfg.padding, cfg.layout};
    EXPECT_EQ(describe(gpusim::replay_stats(recorder.take(), layout)),
              describe(plain.report.totals.shared));
  }
}

TEST_F(SortParallel, FaultOnHelperSurfacesOnCaller) {
  const char* const name = "sim.smem.invariant";
  failpoint::disarm_all();
  const SortConfig cfg{5, 64, 32};
  const auto input = workload::make_input(workload::InputKind::random,
                                          cfg.tile() * 16, cfg, 9);
  for (const Engine engine : {Engine::pairwise, Engine::multiway4}) {
    const auto before = failpoint::evaluations(name);
    const SortRun clean = run_sort(engine, input, cfg);
    const auto reads = failpoint::evaluations(name) - before;
    ASSERT_GT(reads, 100u);
    {
      // Fires from the middle of the sort on, so several blocks on several
      // workers fail at once.
      failpoint::scoped_arm fp(name, reads / 2);
      EXPECT_THROW((void)run_sort(engine, input, cfg), simulation_error);
    }
    const SortRun again = run_sort(engine, input, cfg);
    expect_same(clean.report, again.report, "after the fault");
    EXPECT_EQ(clean.out, again.out);
  }
}

TEST(ParallelFor, RunsEveryIndexOnceOnNamedWorkers) {
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  std::vector<u32> worker_of(kCount, 0);
  parallel_for(kCount, kWidth, [&](std::size_t i, u32 worker) {
    hits[i].fetch_add(1);
    worker_of[i] = worker;
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
    EXPECT_LT(worker_of[i], kWidth) << i;
  }
}

TEST(ParallelFor, WidthOneRunsInOrderOnTheCaller) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for(5, 1, [&](std::size_t i, u32 worker) {
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, RethrowsTheLowestFailingIndex) {
  for (int rep = 0; rep < 20; ++rep) {
    try {
      parallel_for(64, kWidth, [](std::size_t i, u32) {
        if (i >= 5) {
          throw simulation_error("index " + std::to_string(i));
        }
      });
      ADD_FAILURE() << "no exception";
    } catch (const simulation_error& e) {
      EXPECT_NE(std::string(e.what()).find("index 5"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ParallelFor, HelpersAndPoolWorkersDoNotFanOutAgain) {
  ASSERT_EQ(::setenv("WCM_THREADS", "4", 1), 0);
  EXPECT_EQ(parallel_width(16), 4u);
  EXPECT_EQ(parallel_width(3), 3u);
  EXPECT_EQ(parallel_width(0), 1u);
  std::vector<u32> nested(64, 0);
  parallel_for(64, kWidth, [&](std::size_t i, u32 worker) {
    nested[i] = worker == 0 ? 1 : parallel_width(16);
  });
  for (const u32 width : nested) {
    EXPECT_EQ(width, 1u);
  }
  std::atomic<u32> in_pool{0};
  {
    runtime::ThreadPool pool(1);
    pool.submit([&] { in_pool = parallel_width(16); });
  }
  EXPECT_EQ(in_pool.load(), 1u);

  ASSERT_EQ(::setenv("WCM_THREADS", "1", 1), 0);
  EXPECT_EQ(parallel_width(16), 1u);
  ASSERT_EQ(::setenv("WCM_THREADS", "many", 1), 0);
  EXPECT_THROW((void)parallel_width(16), parse_error);
  ASSERT_EQ(::unsetenv("WCM_THREADS"), 0);
}

}  // namespace
}  // namespace wcm::sort
