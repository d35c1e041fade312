#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <thread>
#include <vector>

#include "util/check.hpp"
#include "util/parse.hpp"

namespace wcm {

namespace {

thread_local bool inline_only = false;

/// The first failure one worker saw (workers claim indices in increasing
/// order, so it is also that worker's lowest failing index).
struct Failure {
  std::size_t index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;
};

}  // namespace

void no_nested_fan_out() noexcept { inline_only = true; }

u32 parallel_width(std::size_t count) {
  if (inline_only || count <= 1) {
    return 1;
  }
  u32 threads = threads_from_env(0);
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<u32>(std::min<std::size_t>(threads, count));
}

void parallel_for(std::size_t count, u32 width,
                  const std::function<void(std::size_t, u32)>& body) {
  WCM_EXPECTS(width >= 1, "parallel_for needs at least one worker");
  width = static_cast<u32>(std::min<std::size_t>(width, count));
  if (width <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      body(i, 0);
    }
    return;
  }

  // Storing `count` into the counter after a failure stops every worker
  // at its next claim.
  std::atomic<std::size_t> next{0};
  std::vector<Failure> failures(width);
  const auto work = [&](u32 worker) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) {
        return;
      }
      try {
        body(i, worker);
      } catch (...) {
        failures[worker] = {i, std::current_exception()};
        next.store(count, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> helpers;
  helpers.reserve(width - 1);
  for (u32 worker = 1; worker < width; ++worker) {
    try {
      helpers.emplace_back([&work, worker] {
        no_nested_fan_out();
        work(worker);
      });
    } catch (...) {
      // No thread (or no memory for one): the workers that did start
      // claim the remaining indices, so the loop still completes.
      break;
    }
  }
  work(0);
  for (std::thread& helper : helpers) {
    helper.join();
  }

  const auto first = std::min_element(
      failures.begin(), failures.end(),
      [](const Failure& a, const Failure& b) { return a.index < b.index; });
  if (first->error) {
    std::rethrow_exception(first->error);
  }
}

}  // namespace wcm
