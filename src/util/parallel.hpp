#pragma once
// Index-ordered fan-out of independent tasks over plain std::threads — the
// host-side parallelism inside one simulated sort, where every thread block
// of a round is an independent task (docs/API.md, "Threading").
//
// parallel_for starts its helper threads per call and joins them before it
// returns; there is no process-global pool.  Workers claim indices through
// one atomic counter and nothing else is shared between them, so a body
// that keeps its mutable state per worker (the `worker` argument) runs
// without locks.
//
// A thread that already sits on a parallel level does not fan out again:
// runtime::ThreadPool workers (campaign cells, wcmd requests) and
// parallel_for's own helpers mark themselves with no_nested_fan_out(), and
// parallel_width() then answers 1.  That keeps a campaign that fills every
// core from oversubscribing it with nested helpers.

#include <cstddef>
#include <functional>

#include "util/math.hpp"

namespace wcm {

/// Mark the calling thread as one that runs parallel_for inline (width 1)
/// for the rest of its life.
void no_nested_fan_out() noexcept;

/// Width parallel_for should use for `count` tasks on the calling thread:
/// min(count, WCM_THREADS or else std::thread::hardware_concurrency()),
/// at least 1, and exactly 1 on a thread marked by no_nested_fan_out().
/// Throws wcm::parse_error on a malformed WCM_THREADS.
[[nodiscard]] u32 parallel_width(std::size_t count);

/// Run body(index, worker) once for every index in [0, count) on
/// min(width, count) workers: the caller is worker 0, and the others are
/// helper threads started and joined before this returns.  `worker` <
/// width names the worker running the call, so the body can use
/// per-worker state.  One worker runs every index in order on the caller.
///
/// When bodies throw, no further index is claimed; once every helper has
/// joined, the exception of the lowest failing index is rethrown on the
/// caller (the runtime::parallel_map contract).
void parallel_for(std::size_t count, u32 width,
                  const std::function<void(std::size_t index, u32 worker)>&
                      body);

}  // namespace wcm
