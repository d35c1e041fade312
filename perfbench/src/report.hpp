#pragma once
// Plumbing shared by the three workloads of the benchmark binary: the
// clock, benchmark-side spans with a plain-text self/total table, order
// statistics, process facts, and the measured metrics with their line.
//
// Spans are recorded only around calls *into* the library, from the
// benchmark's own code, and only on the main thread.  A span's layer is
// the part of its name before the first dot (`sort.recost` -> `sort`).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

// ---- spans -----------------------------------------------------------------

class Tracer {
 public:
  class Span {
   public:
    Span(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    Span(Span&&) = delete;
    Span& operator=(Span&&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  /// Spans are recorded only while enabled; a disabled span costs one
  /// branch.
  void set_enabled(bool on) noexcept { enabled_ = on; }

  [[nodiscard]] Span span(const char* name);

  /// Add time measured on other threads as `calls` top-level spans.
  void record(const std::string& name, double seconds, std::size_t calls);

  /// Per-span-name and per-layer self/total time table.
  void print_table(std::ostream& os) const;

 private:
  struct Record {
    std::string name;
    int parent = -1;
    Clock::time_point start;
    Clock::time_point end;
  };
  void close(int index);

  struct External {
    std::string name;
    double seconds = 0.0;
    std::size_t calls = 0;
  };

  bool enabled_ = false;
  std::vector<Record> records_;
  std::vector<External> external_;
  std::vector<int> open_;
};

/// The process-wide tracer (main thread only).
[[nodiscard]] Tracer& tracer();

// ---- statistics ------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);

/// The highest percentile that has at least ten samples beyond it.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< e.g. 99.0
  bool defined = false;     ///< false with ten samples or fewer
};
[[nodiscard]] Tail tail(std::vector<double> v);

// ---- process facts ---------------------------------------------------------

/// CPUs this process may run on (what `nproc` prints).
[[nodiscard]] unsigned nproc();

/// Peak resident set size (VmHWM) of a process, in MiB.
[[nodiscard]] double peak_rss_mb(pid_t pid);

// ---- results ---------------------------------------------------------------

class Result {
 public:
  /// Record a metric by its BENCHMARK.json name; throws on a value that
  /// is not finite.
  void set(const std::string& name, double value, std::size_t samples);

  /// Count one correctness check; a failing one is reported on stderr.
  void check(bool ok, const std::string& what);

  [[nodiscard]] std::size_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::size_t failed() const noexcept { return failed_; }

  /// One JSON line with the check counts and every metric recorded, each
  /// with its value and sample count.  run.py adds the units from
  /// BENCHMARK.json and picks the metrics of the result line.
  void print(std::ostream& os) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::size_t samples = 0;
  };
  std::vector<Metric> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

}  // namespace perfbench
