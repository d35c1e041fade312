#pragma once
// The benchmark's workloads (README.md in this directory says why each
// was chosen).  Each records its metrics and checks into `result`.

#include <string>

#include "report.hpp"

namespace perfbench {

/// Whole pairwise merge sorts at Thrust's parameters on both of the
/// paper's devices, random and worst-case input, one thread.
void run_sort_paper(const Options& opts, Result& result);

/// One in-memory campaign of ~60 uneven cells over all workers, cache off.
void run_campaign_grid(const Options& opts, Result& result);

/// A spawned wcmd under a closed loop of unique and repeated
/// generate/prove requests.
void run_serve_mixed(const Options& opts, const std::string& wcmd,
                     Result& result);

}  // namespace perfbench
