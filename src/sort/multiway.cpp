#include "sort/multiway.hpp"

#include <algorithm>
#include <numeric>

#include "gpusim/shared_memory.hpp"
#include "sort/describe.hpp"
#include "sort/pairwise_sort.hpp"
#include "sort/rounds.hpp"
#include "telemetry/span.hpp"
#include "util/check.hpp"
#include "util/failpoint.hpp"

namespace wcm::sort {

std::size_t multiway_round_count(std::size_t n, const SortConfig& cfg,
                                 u32 ways) {
  WCM_EXPECTS(ways >= 2, "need at least 2 ways");
  std::size_t runs = n / cfg.tile();
  std::size_t rounds = 0;
  while (runs > 1) {
    runs = ceil_div(runs, ways);
    ++rounds;
  }
  return rounds;
}

namespace {

/// K-way co-rank at output rank `diag` over sorted runs: writes to `split`
/// (one entry per run) the per-run counts (i_1..i_K) of the stable K-way
/// merge prefix (ties go to the lowest run index).  `steps` accumulates the
/// value-domain bisection iterations (the dependent probe chain the
/// partitioning stage pays).
void kway_corank(std::span<const std::span<const word>> runs,
                 std::size_t diag, std::size_t& steps,
                 std::span<std::size_t> split) {
  WCM_EXPECTS(split.size() == runs.size(), "one split per run");
  std::size_t total = 0;
  for (const auto& r : runs) {
    total += r.size();
  }
  WCM_EXPECTS(diag <= total, "diagonal beyond the runs");
  if (diag == 0 || diag == total) {
    for (std::size_t k = 0; k < runs.size(); ++k) {
      split[k] = diag == 0 ? 0 : runs[k].size();
    }
    return;
  }

  // Smallest value v with count_le(v) >= diag, by bisection on the value
  // domain spanned by the runs.
  word lo = runs[0].empty() ? 0 : runs[0].front();
  word hi = lo;
  for (const auto& r : runs) {
    if (!r.empty()) {
      lo = std::min(lo, r.front());
      hi = std::max(hi, r.back());
    }
  }
  const auto count_le = [&](word v) {
    std::size_t c = 0;
    for (const auto& r : runs) {
      c += static_cast<std::size_t>(
          std::upper_bound(r.begin(), r.end(), v) - r.begin());
    }
    return c;
  };
  while (lo < hi) {
    ++steps;
    const word mid = lo + (hi - lo) / 2;
    if (count_le(mid) >= diag) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const word v = lo;

  // Elements strictly below v always belong to the prefix; ties at v are
  // assigned in run order (stability).
  std::size_t assigned = 0;
  for (std::size_t k = 0; k < runs.size(); ++k) {
    split[k] = static_cast<std::size_t>(
        std::lower_bound(runs[k].begin(), runs[k].end(), v) -
        runs[k].begin());
    assigned += split[k];
  }
  WCM_ENSURES(assigned <= diag, "bisection overshot the diagonal");
  std::size_t extra = diag - assigned;
  for (std::size_t k = 0; k < runs.size() && extra > 0; ++k) {
    const std::size_t ties = static_cast<std::size_t>(
        std::upper_bound(runs[k].begin(), runs[k].end(), v) -
        runs[k].begin()) - split[k];
    const std::size_t take = std::min(extra, ties);
    split[k] += take;
    extra -= take;
  }
  WCM_ENSURES(extra == 0, "tie distribution must reach the diagonal");
}

/// One thread's K segments in shared memory.
struct ThreadKCtx {
  std::vector<std::pair<std::size_t, std::size_t>> segs;  // [begin, end)
  std::size_t out_begin = 0;

  [[nodiscard]] std::size_t elements() const noexcept {
    std::size_t n = 0;
    for (const auto& [b, e] : segs) {
      n += e - b;
    }
    return n;
  }
};

/// One block of a global K-way round: `ways` source segments, starting at
/// `ranges[first]`, as absolute [begin, end) positions in the round's
/// input, and the start of its output tile.
struct KwayTile {
  std::size_t first = 0;
  std::size_t ways = 0;
  std::size_t out = 0;
};

/// One simulated bisection interval [lo, hi) of account_kway_searches.
struct Range {
  std::size_t lo = 0;
  std::size_t hi = 0;
};

/// One worker's reusable per-block buffers: a warm scratch makes a K-way
/// block allocation-free.
struct alignas(kWorkerAlign) KwayScratch {
  std::vector<ThreadKCtx> ctxs;
  std::vector<word> staged;
  std::vector<std::pair<std::size_t, std::size_t>> seg_addr;
  std::vector<std::span<const word>> segs;
  std::vector<std::size_t> tsplit;  // (b + 1) x K thread co-ranks
  std::vector<Range> ranges;
  std::vector<std::size_t> cursor;  // b x K merge cursors
  std::vector<word> regs;
  std::vector<gpusim::LaneWrite> writes;
  std::vector<gpusim::LaneRead> reads;
};

/// Account each thread's in-block quantile search: one binary search per
/// run per thread (log2(|seg|) warp-synchronous probe loads), the dominant
/// probe traffic of the K-way partition in shared memory.
void account_kway_searches(gpusim::SharedMemory& shm,
                           std::span<const ThreadKCtx> ctxs, u32 w,
                           gpusim::KernelStats& stats, KwayScratch& scratch) {
  const std::size_t runs = ctxs.empty() ? 0 : ctxs[0].segs.size();
  std::vector<gpusim::LaneRead>& probes = scratch.reads;
  std::vector<Range>& r = scratch.ranges;
  const auto before = shm.begin_phase();
  for (std::size_t warp_start = 0; warp_start < ctxs.size();
       warp_start += w) {
    const std::size_t warp_end =
        std::min<std::size_t>(warp_start + w, ctxs.size());
    for (std::size_t k = 0; k < runs; ++k) {
      // Per-lane simulated bisection over its k-th segment.
      r.clear();
      for (std::size_t i = warp_start; i < warp_end; ++i) {
        r.push_back({ctxs[i].segs[k].first, ctxs[i].segs[k].second});
      }
      for (;;) {
        probes.clear();
        for (std::size_t i = 0; i < r.size(); ++i) {
          if (r[i].lo < r[i].hi) {
            probes.push_back({static_cast<u32>(i),
                              r[i].lo + (r[i].hi - r[i].lo) / 2});
          }
        }
        if (probes.empty()) {
          break;
        }
        shm.warp_read(probes);
        for (auto& range : r) {
          if (range.lo < range.hi) {
            const std::size_t mid = range.lo + (range.hi - range.lo) / 2;
            // The probe halves the range; which half is data-dependent but
            // both have the same length profile — walk deterministically.
            range.lo = mid + 1;
          }
        }
      }
    }
  }
  stats.shared_search += shm.end_phase(before);
}

/// Lock-step K-way merge: at each of E iterations every thread consumes the
/// minimum head among its segments (lowest segment index wins ties) — one
/// accounted shared read per thread per iteration, exactly like the
/// pairwise engine.  A selection among K heads costs ceil(log2 K) extra
/// compare steps, charged to warp_merge_steps.
void simulate_kway_merge(gpusim::SharedMemory& shm,
                         std::span<const ThreadKCtx> ctxs, u32 E,
                         gpusim::KernelStats& stats, KwayScratch& scratch) {
  const u32 w = shm.warp_size();
  const std::size_t t = ctxs.size();
  const std::size_t ways = ctxs.empty() ? 0 : ctxs[0].segs.size();
  std::vector<std::size_t>& cursor = scratch.cursor;  // thread i, run k
  cursor.resize(t * ways);
  for (std::size_t i = 0; i < t; ++i) {
    WCM_EXPECTS(ctxs[i].elements() == E, "thread must merge exactly E keys");
    WCM_EXPECTS(ctxs[i].segs.size() == ways, "every thread has K segments");
    for (std::size_t k = 0; k < ways; ++k) {
      cursor[i * ways + k] = ctxs[i].segs[k].first;
    }
  }
  std::vector<word>& regs = scratch.regs;
  regs.resize(t * E);
  const u32 sel_depth = ways < 2 ? 1 : floor_log2(2 * ways - 1);

  const auto before = shm.begin_phase();
  std::vector<gpusim::LaneRead>& reads = scratch.reads;
  for (std::size_t warp_start = 0; warp_start < t; warp_start += w) {
    const std::size_t warp_end = std::min<std::size_t>(warp_start + w, t);
    for (u32 s = 0; s < E; ++s) {
      reads.clear();
      for (std::size_t i = warp_start; i < warp_end; ++i) {
        std::size_t* cur = cursor.data() + i * ways;
        std::size_t best = static_cast<std::size_t>(-1);
        word best_val = 0;
        for (std::size_t k = 0; k < ways; ++k) {
          if (cur[k] < ctxs[i].segs[k].second) {
            const word v = shm.peek(cur[k]);
            if (best == static_cast<std::size_t>(-1) || v < best_val) {
              best = k;
              best_val = v;
            }
          }
        }
        WCM_EXPECTS(best != static_cast<std::size_t>(-1),
                    "thread ran out of elements before step E");
        const std::size_t addr = cur[best]++;
        regs[i * E + s] = best_val;
        reads.push_back({static_cast<u32>(i - warp_start), addr});
      }
      shm.warp_read(reads);
    }
    stats.warp_merge_steps += static_cast<std::size_t>(E) * sel_depth;
  }
  stats.shared_merge_reads += shm.end_phase(before);

  // Barrier, thread-contiguous write-back, barrier before unstaging reads.
  shm.barrier();
  std::vector<gpusim::LaneWrite>& writes = scratch.writes;
  for (std::size_t warp_start = 0; warp_start < t; warp_start += w) {
    const std::size_t warp_end = std::min<std::size_t>(warp_start + w, t);
    for (u32 s = 0; s < E; ++s) {
      writes.clear();
      for (std::size_t i = warp_start; i < warp_end; ++i) {
        writes.push_back({static_cast<u32>(i - warp_start),
                          ctxs[i].out_begin + s, regs[i * E + s]});
      }
      shm.warp_write(writes);
    }
  }
  shm.barrier();
}

/// Partitioning stage of one group of K runs starting at absolute position
/// `base`: K-way co-ranks at every tile boundary, charged to `stats`.
/// Appends the group's blocks to `tiles` and their segments to `ranges`.
void partition_group(std::span<const std::span<const word>> runs,
                     std::size_t base, std::size_t tile,
                     gpusim::KernelStats& stats, std::vector<KwayTile>& tiles,
                     std::vector<std::pair<std::size_t, std::size_t>>& ranges) {
  std::size_t total = 0;
  for (const auto& r : runs) {
    total += r.size();
  }
  WCM_EXPECTS(total % tile == 0, "group size must be a multiple of bE");

  std::size_t steps = 0;
  std::vector<std::size_t> lo(runs.size());
  std::vector<std::size_t> hi(runs.size());
  kway_corank(runs, 0, steps, lo);
  for (std::size_t diag = tile; diag <= total; diag += tile) {
    steps = 0;
    kway_corank(runs, diag, steps, hi);
    stats.binary_search_steps += steps;
    stats.global_requests += steps * runs.size();
    stats.global_transactions += steps * runs.size();
    tiles.push_back({ranges.size(), runs.size(), base + diag - tile});
    std::size_t run_base = base;
    for (std::size_t k = 0; k < runs.size(); ++k) {
      ranges.emplace_back(run_base + lo[k], run_base + hi[k]);
      run_base += runs[k].size();
    }
    lo.swap(hi);
  }
}

/// Simulate one thread block of a global K-way round: merge its segments of
/// `data` into its output tile of `out`.
void simulate_kway_tile(
    std::span<const word> data,
    std::span<const std::pair<std::size_t, std::size_t>> ranges,
    std::size_t out_pos, std::span<word> out, const SortConfig& cfg,
    gpusim::SharedMemory& shm, KwayScratch& scratch,
    gpusim::KernelStats& stats) {
  const std::size_t tile = cfg.tile();
  const u32 E = cfg.E;
  const u32 b = cfg.b;
  const u32 w = cfg.w;
  const std::size_t ways = ranges.size();
  std::vector<ThreadKCtx>& ctxs = scratch.ctxs;
  std::vector<word>& staged = scratch.staged;
  std::vector<std::pair<std::size_t, std::size_t>>& seg_addr =
      scratch.seg_addr;
  std::vector<std::span<const word>>& segs = scratch.segs;
  std::vector<std::size_t>& tsplit = scratch.tsplit;
  std::vector<gpusim::LaneWrite>& writes = scratch.writes;
  std::vector<gpusim::LaneRead>& reads = scratch.reads;

  // Block boundary between consecutive simulated tiles.
  shm.barrier();

  // Stage the tile: segment k at the shared offset of the cumulative
  // segment sizes; remember the staged copy for the thread searches.
  staged.clear();
  seg_addr.resize(ways);
  for (std::size_t k = 0; k < ways; ++k) {
    const auto [lo, hi] = ranges[k];
    const std::size_t begin = staged.size();
    staged.insert(staged.end(), data.begin() + static_cast<std::ptrdiff_t>(lo),
                  data.begin() + static_cast<std::ptrdiff_t>(hi));
    seg_addr[k] = {begin, staged.size()};
    stats.global_transactions += (hi - lo + w - 1) / w + 1;
  }
  WCM_ENSURES(staged.size() == tile, "tile staging mismatch");
  shm.fill(staged);
  stats.global_requests += tile;
  for (u32 warp_start = 0; warp_start < b; warp_start += w) {
    for (u32 s = 0; s < E; ++s) {
      writes.clear();
      for (u32 lane = 0; lane < w; ++lane) {
        const std::size_t addr = static_cast<std::size_t>(warp_start + lane) +
                                 static_cast<std::size_t>(s) * b;
        if (addr < tile) {
          writes.push_back({lane, addr, shm.peek(addr)});
        }
      }
      shm.warp_write(writes);
    }
  }
  // __syncthreads: the quantile searches probe other threads' staging.
  shm.barrier();

  // Per-thread quantiles within the staged tile.
  segs.resize(ways);
  for (std::size_t k = 0; k < ways; ++k) {
    segs[k] = std::span<const word>(staged).subspan(
        seg_addr[k].first, seg_addr[k].second - seg_addr[k].first);
  }
  tsplit.resize((static_cast<std::size_t>(b) + 1) * ways);
  for (u32 t = 0; t <= b; ++t) {
    std::size_t steps = 0;
    kway_corank(segs, static_cast<std::size_t>(t) * E, steps,
                std::span(tsplit).subspan(t * ways, ways));
  }
  ctxs.resize(b);
  for (u32 t = 0; t < b; ++t) {
    ctxs[t].segs.resize(ways);
    for (std::size_t k = 0; k < ways; ++k) {
      ctxs[t].segs[k] = {seg_addr[k].first + tsplit[t * ways + k],
                         seg_addr[k].first + tsplit[(t + 1) * ways + k]};
    }
    ctxs[t].out_begin = static_cast<std::size_t>(t) * E;
  }
  account_kway_searches(shm, ctxs, w, stats, scratch);

  simulate_kway_merge(shm, ctxs, E, stats, scratch);

  // Coalesced store (conflict-free unstaging reads, as in the pairwise
  // engine).
  for (u32 warp_start = 0; warp_start < b; warp_start += w) {
    for (u32 s = 0; s < E; ++s) {
      reads.clear();
      for (u32 lane = 0; lane < w; ++lane) {
        const std::size_t addr = static_cast<std::size_t>(warp_start + lane) +
                                 static_cast<std::size_t>(s) * b;
        if (addr < tile) {
          reads.push_back({lane, addr});
        }
      }
      shm.warp_read(reads);
    }
  }
  const std::span<const word> merged = shm.view(0, tile);
  std::copy(merged.begin(), merged.end(),
            out.begin() + static_cast<std::ptrdiff_t>(out_pos));
  stats.global_transactions += tile / w;
  stats.global_requests += tile;
  stats.blocks_launched += 1;
  stats.elements_processed += tile;
}

}  // namespace

SortReport multiway_merge_sort(std::span<const word> input,
                               const SortConfig& cfg,
                               const gpusim::Device& dev, u32 ways,
                               std::vector<word>* output) {
  cfg.validate();
  WCM_CHECK_CONFIG(ways >= 2, "need at least 2 ways");
  WCM_CHECK_CONFIG(cfg.w == dev.warp_size,
                   "config warp size must match device");
  const std::size_t tile = cfg.tile();
  const std::size_t n = input.size();
  WCM_CHECK_CONFIG(n > 0 && n % tile == 0,
                   "input size must be a positive multiple of bE");

  const gpusim::Calibration cal =
      library_calibration(MergeSortLibrary::thrust);
  const gpusim::LaunchConfig launch{n / tile, cfg.b, cfg.shared_bytes()};

  SortReport report;
  report.config = cfg;
  report.device = dev;
  report.n = n;

  std::vector<word> data(input.begin(), input.end());
  std::vector<word> buffer(n);
  BlockFanOut fan_out(cfg, n / tile);
  std::vector<KwayScratch> scratch(fan_out.width());
  std::vector<std::span<const word>> runs;
  std::vector<KwayTile> tiles;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;

  WCM_SPAN("multiway.sort");

  {
    WCM_SPAN("multiway.block_sort");
    block_sort_round(data, fan_out, "multiway", launch, cal, report);
  }

  // Global K-way rounds: every group is partitioned on this thread, then
  // the blocks of all groups fan out together.
  std::size_t run = tile;
  u32 round_idx = 0;
  while (run < n) {
    ++round_idx;
    WCM_SPAN("multiway.merge_round");
    WCM_FAILPOINT("sort.multiway.round", simulation_error,
                  "injected mid-round invariant break");
    gpusim::KernelStats stats;
    tiles.clear();
    ranges.clear();
    const std::size_t group_out = run * ways;
    for (std::size_t base = 0; base < n; base += group_out) {
      runs.clear();
      std::size_t group_size = 0;
      for (u32 k = 0; k < ways && base + group_size < n; ++k) {
        const std::size_t len = std::min(run, n - base - group_size);
        runs.push_back(
            std::span<const word>(data).subspan(base + group_size, len));
        group_size += len;
      }
      if (runs.size() == 1) {
        std::copy(runs[0].begin(), runs[0].end(),
                  buffer.begin() + static_cast<std::ptrdiff_t>(base));
        stats.global_transactions += 2 * ceil_div(runs[0].size(), cfg.w);
        stats.global_requests += 2 * runs[0].size();
        continue;
      }
      partition_group(runs, base, tile, stats, tiles, ranges);
    }
    stats += fan_out.run(
        tiles.size(), [&](std::size_t block, BlockWorker& worker,
                          gpusim::KernelStats& block_stats) {
          const KwayTile& t = tiles[block];
          simulate_kway_tile(
              data, std::span(ranges).subspan(t.first, t.ways), t.out, buffer,
              cfg, worker.shm, scratch[worker.index], block_stats);
        });
    data.swap(buffer);
    append_round(report, "multiway",
                 "multiway round " + std::to_string(round_idx), stats, launch,
                 cal);
    run = group_out;
  }

  WCM_CHECK_SIM(std::is_sorted(data.begin(), data.end()),
                "multiway merge sort must sort");
  if (output != nullptr) {
    *output = std::move(data);
  }
  return report;
}

gpusim::ir::KernelDesc describe_multiway(u32 w, u32 b, u32 pad, u32 ways) {
  namespace ir = gpusim::ir;
  WCM_EXPECTS(ways >= 2, "multiway merge needs at least two runs");
  // The simulated engine block-sorts its tiles first, so the description
  // composes the blocksort groups the same way describe_pairwise does.
  ir::KernelDesc d = describe_blocksort(w, b, pad);
  d.kernel = "multiway";
  const int e = d.find_symbol("E");
  const int s = d.find_symbol("s");
  const int wse = d.find_symbol("wsE");
  const int ws = d.add_symbol("ws", ir::SymRole::warp_shift, 0, 0, w, 0);
  const i64 last_warp = static_cast<i64>(w) * ((static_cast<i64>(b) - 1) /
                                               static_cast<i64>(w));
  d.symbols[static_cast<std::size_t>(ws)].max_form =
      ir::LinForm::constant(last_warp);
  d.symbols[static_cast<std::size_t>(ws)].step_form =
      ir::LinForm::constant(static_cast<i64>(w));
  const ir::LinForm tile_hi =
      ir::LinForm::sym(e, static_cast<i64>(b)) - ir::LinForm::constant(1);
  const bool partial_warp = b % w != 0;

  d.groups.push_back(ir::barrier_group("round entry"));
  ir::StepGroup stage = ir::affine_group(
      "stage store", ir::GroupKind::write, w,
      ir::LinForm::sym(ws) + ir::LinForm::sym(s, static_cast<i64>(b)),
      ir::LinForm::constant(1), "E steps x b/w warps x rounds");
  stage.masked = partial_warp;
  d.groups.push_back(std::move(stage));
  d.groups.push_back(ir::barrier_group("after staging"));
  // Each thread bisects for its quantile in every one of the K staged
  // runs in turn; one warp step probes within a single run's segment,
  // conservatively widened to the whole tile.
  d.groups.push_back(ir::with_region(
      ir::window_group(
          "quantile probes", ir::GroupKind::read, w,
          ir::LinForm::sym(e, static_cast<i64>(b)), ir::LinForm::constant(1),
          "<= ceil(log2(bE/K+1)) bisection iterations x K runs"),
      ir::LinForm::constant(0), tile_hi));
  // Lock-step K-way merge: a warp's E outputs per thread come from K
  // cursor ranges, one per source run.
  d.groups.push_back(ir::with_region(
      ir::window_group(
          "k-way merge reads", ir::GroupKind::read, w,
          ir::LinForm::sym(e, static_cast<i64>(w)),
          ir::LinForm::constant(static_cast<i64>(ways)),
          "E lock-step iterations, K-head selection"),
      ir::LinForm::constant(0), tile_hi));
  d.groups.push_back(ir::barrier_group("pre/post write-back barrier"));
  d.groups.back().repeat = "2 per round";
  ir::StepGroup wb = ir::affine_group(
      "merge write-back", ir::GroupKind::write, w,
      ir::LinForm::sym(wse) + ir::LinForm::sym(s), ir::LinForm::sym(e),
      "E steps x b/w warps x rounds");
  wb.masked = partial_warp;
  d.groups.push_back(std::move(wb));
  ir::StepGroup unstage = ir::affine_group(
      "unstage load", ir::GroupKind::read, w,
      ir::LinForm::sym(ws) + ir::LinForm::sym(s, static_cast<i64>(b)),
      ir::LinForm::constant(1), "E steps x b/w warps x rounds");
  unstage.masked = partial_warp;
  d.groups.push_back(std::move(unstage));
  d.groups.push_back(ir::barrier_group("round exit"));
  return d;
}

}  // namespace wcm::sort
