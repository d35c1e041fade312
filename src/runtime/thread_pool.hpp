#pragma once
// Fixed-size std::thread worker pool: the execution substrate of the
// campaign runtime (runtime/scheduler.hpp).  Tasks are type-erased
// closures; submission is thread-safe; the destructor drains the queue and
// joins every worker, so a pool never outlives work it accepted.
//
// Tasks must not throw — the scheduler wraps every job in its own
// try/catch and records the outcome, so an exception escaping a pool task
// is a programming error (std::terminate, same as an exception escaping a
// thread).
//
// Workers are marked with wcm::no_nested_fan_out() (util/parallel.hpp):
// a sort simulated on a worker runs its thread blocks inline instead of
// starting helpers of its own.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "gpusim/occupancy.hpp"
#include "util/math.hpp"
#include "util/parse.hpp"

namespace wcm::runtime {

class ThreadPool {
 public:
  /// Spawn exactly `threads` workers (>= 1, contract-checked).
  explicit ThreadPool(u32 threads);

  /// Drains every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue one task; runs on some worker, in FIFO dequeue order.
  void submit(std::function<void()> task);

  [[nodiscard]] u32 thread_count() const noexcept {
    return static_cast<u32>(workers_.size());
  }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Worker count for a campaign whose heaviest cell launches
/// `threads_per_block` threads with `shared_bytes_per_block` of shared
/// memory on the modeled device `dev`.
///
/// `requested` > 0 is honored verbatim (the operator knows best).  With
/// `requested` == 0, the count is sized device-aware: the simulation of one
/// sort executes its resident blocks sequentially on the host, so the
/// modeled device's own concurrency — occupancy().resident_blocks x
/// sm_count, the number of blocks the real card would run at once — is the
/// natural ceiling on how many cells are worth simulating concurrently;
/// host hardware concurrency caps it from below.  Launches that do not fit
/// the device (Occupancy::Limiter::block_too_large) get 1 worker; the cell
/// itself will fail validation with the real error.
[[nodiscard]] u32 recommended_workers(u32 requested, const gpusim::Device& dev,
                                      u32 threads_per_block,
                                      std::size_t shared_bytes_per_block);

/// Strictly-parsed WCM_THREADS environment override (util/parse.hpp).
using wcm::threads_from_env;

}  // namespace wcm::runtime
