#pragma once
// Fault-injection failpoints.
//
// A failpoint is a named hook compiled into an error-prone code path (short
// read, allocation, mid-round simulator invariant, ...).  While nothing is
// armed (and WCM_FAILPOINTS has been read), a WCM_FAILPOINT site costs one
// relaxed load of a process-wide "active" flag plus a relaxed increment of
// its own cached evaluation counter: no lock, no name lookup, so sites may
// sit on per-step simulator paths.  While any failpoint is armed, every
// site takes the mutex-guarded registry path; an armed failpoint makes its
// site throw its typed error so tests — and operators chasing a production
// incident — can prove every error path actually fires.
//
// Activation:
//   * in code:   failpoint::arm("io.read.truncated");  (or scoped_arm RAII)
//   * from env:  WCM_FAILPOINTS="io.read.truncated;sim.smem.alloc=2"
//                parsed lazily on first evaluation (or explicitly via
//                configure_from_env()).  Entry syntax: name[=skip[:times]]
//                — skip the first `skip` hits, then fire `times` times
//                (default: fire on every hit).
//
// Instrumented sites use WCM_FAILPOINT(name, ErrorType, msg), which throws
// `ErrorType(msg, "failpoint <name>")` when the failpoint fires.  The full
// list of baked-in names is returned by failpoint::known() and documented
// in docs/API.md.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace wcm::failpoint {

/// Count one evaluation of `name`; true iff the failpoint is armed and
/// elects to fire (consuming one of its remaining shots).  Registers the
/// name on first sight.  Thread-safe; always takes the registry mutex
/// (WCM_FAILPOINT sites use the lock-free detail::Site instead).
[[nodiscard]] bool should_fail(const char* name);

namespace detail {

/// True while any failpoint is armed or WCM_FAILPOINTS is still unread.
extern std::atomic<bool> active;

/// Index of the calling thread's EvalCounter shard (assigned round robin on
/// the thread's first evaluation).
[[nodiscard]] std::size_t this_thread_shard() noexcept;

/// A failpoint's evaluation count, split into cache-line shards: threads
/// that simulate blocks side by side (sort::BlockFanOut) evaluate
/// `sim.smem.invariant` on every step, and one shared counter line would
/// bounce between their cores.  Each thread increments its own shard;
/// readers sum them, so the count stays exact.
class EvalCounter {
 public:
  void add() noexcept {
    shards_[this_thread_shard()].n.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t load() const noexcept;
  void reset() noexcept;

  static constexpr std::size_t kShards = 16;

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> n{0};
  };
  std::array<Shard, kShards> shards_;
};

/// One WCM_FAILPOINT site.  Registers its name once and caches the
/// failpoint's evaluation counter, so the common disarmed evaluation is a
/// relaxed flag load and a relaxed increment of this thread's shard.  A
/// site that races a concurrent arm() may count one more disarmed
/// evaluation before it sees the flag; after that it takes should_fail()'s
/// locked path.
class Site {
 public:
  explicit Site(const char* name);

  [[nodiscard]] bool should_fail() {
    if (!active.load(std::memory_order_relaxed)) {
      evaluations_->add();
      return false;
    }
    return failpoint::should_fail(name_);
  }

 private:
  const char* name_;
  EvalCounter* evaluations_;
};

}  // namespace detail

/// Arm `name`: skip the first `skip` evaluations, then fire `times` times
/// (`times < 0` = fire forever).
void arm(const std::string& name, std::uint64_t skip = 0,
         std::int64_t times = -1);

/// Disarm `name` (counters are preserved).
void disarm(const std::string& name);

/// Disarm every failpoint (counters are preserved).
void disarm_all();

/// Reset every hit counter to zero (armed state is preserved).
void reset_counters();

/// True iff `name` is currently armed.
[[nodiscard]] bool armed(const std::string& name);

/// Times `name` has been reached (armed or not).
[[nodiscard]] std::uint64_t evaluations(const std::string& name);

/// Times `name` has actually fired.
[[nodiscard]] std::uint64_t triggers(const std::string& name);

/// All known failpoint names: the baked-in registry plus any name seen at
/// runtime, sorted.
[[nodiscard]] std::vector<std::string> known();

/// Parse the WCM_FAILPOINTS environment variable now (idempotent per
/// distinct value); returns the number of failpoints armed by it.  Called
/// lazily by should_fail(), but tests may call it directly after setenv().
std::size_t configure_from_env();

/// RAII: arm a failpoint for the current scope, disarm on exit.
class scoped_arm {
 public:
  explicit scoped_arm(std::string name, std::uint64_t skip = 0,
                      std::int64_t times = -1);
  ~scoped_arm();
  scoped_arm(const scoped_arm&) = delete;
  scoped_arm& operator=(const scoped_arm&) = delete;

 private:
  std::string name_;
};

/// RAII: disarm one failpoint (or, default-constructed, every armed
/// failpoint) for the current scope; restore the previous arming on exit.
class scoped_disarm {
 public:
  scoped_disarm();
  explicit scoped_disarm(const std::string& name);
  ~scoped_disarm();
  scoped_disarm(const scoped_disarm&) = delete;
  scoped_disarm& operator=(const scoped_disarm&) = delete;

 private:
  struct Saved {
    std::string name;
    std::uint64_t skip;
    std::int64_t times;
  };
  std::vector<Saved> saved_;
};

}  // namespace wcm::failpoint

/// Failpoint site: when `name` fires, throw `ErrorType(msg, "failpoint
/// <name>")`.  `name` must be a string literal.
#define WCM_FAILPOINT(name, ErrorType, msg)                          \
  do {                                                               \
    static ::wcm::failpoint::detail::Site wcm_failpoint_site_{name}; \
    if (wcm_failpoint_site_.should_fail()) {                         \
      throw ErrorType((msg), "failpoint " name);                     \
    }                                                                \
  } while (false)
