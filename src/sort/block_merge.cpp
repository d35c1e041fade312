#include "sort/block_merge.hpp"

#include <algorithm>

#include "sort/describe.hpp"
#include "telemetry/span.hpp"
#include "util/check.hpp"

namespace wcm::sort {

std::span<const mergepath::CoRank> simulate_block_search(
    gpusim::SharedMemory& shm, std::span<const ThreadSearchCtx> ctxs,
    gpusim::KernelStats& stats, BlockScratch& scratch) {
  WCM_SPAN("block_merge.search");
  const u32 w = shm.warp_size();
  const std::size_t t = ctxs.size();
  std::vector<BlockScratch::Search>& st = scratch.searches;
  std::vector<BlockScratch::Probe>& probes = scratch.probes;
  std::vector<gpusim::LaneRead>& reads = scratch.reads;
  std::vector<mergepath::CoRank>& result = scratch.coranks;
  result.resize(t);

  // Per-thread bisection state, advanced one iteration at a time so probes
  // can be replayed warp-synchronously across lanes; a thread is done once
  // its interval is empty.
  st.resize(t);
  for (std::size_t i = 0; i < t; ++i) {
    const ThreadSearchCtx& c = ctxs[i];
    WCM_EXPECTS(c.a_begin <= c.a_end && c.a_end <= shm.words(),
                "A range invalid");
    WCM_EXPECTS(c.b_begin <= c.b_end && c.b_end <= shm.words(),
                "B range invalid");
    const std::size_t na = c.a_end - c.a_begin;
    const std::size_t nb = c.b_end - c.b_begin;
    WCM_EXPECTS(c.diag <= na + nb, "diagonal beyond both lists");
    st[i].lo = c.diag > nb ? c.diag - nb : 0;
    st[i].hi = std::min(c.diag, na);
    if (st[i].lo >= st[i].hi) {
      result[i] = {st[i].lo, c.diag - st[i].lo};
    }
  }

  const auto shared_before = shm.begin_phase();
  for (std::size_t warp_start = 0; warp_start < t; warp_start += w) {
    const std::size_t warp_end = std::min<std::size_t>(warp_start + w, t);
    for (;;) {
      // Decide this iteration's probe addresses for every active lane.
      probes.clear();
      reads.clear();
      for (std::size_t i = warp_start; i < warp_end; ++i) {
        if (st[i].lo >= st[i].hi) {
          continue;
        }
        const std::size_t mid = st[i].lo + (st[i].hi - st[i].lo) / 2;
        probes.push_back({i, mid, 0});
        reads.push_back(
            {static_cast<u32>(i - warp_start), ctxs[i].a_begin + mid});
      }
      if (probes.empty()) {
        break;
      }
      // Two warp-wide loads per iteration: the A probe then the B probe.
      const std::span<const word> a_values = shm.warp_read(reads);
      for (std::size_t k = 0; k < probes.size(); ++k) {
        const ThreadSearchCtx& c = ctxs[probes[k].thread];
        probes[k].a = a_values[k];
        reads[k].addr = c.b_begin + (c.diag - probes[k].mid) - 1;
      }
      const std::span<const word> b_values = shm.warp_read(reads);
      for (std::size_t k = 0; k < probes.size(); ++k) {
        const auto [i, mid, a] = probes[k];
        if (a <= b_values[k]) {  // A-priority, matches mergepath::merge_path
          st[i].lo = mid + 1;
        } else {
          st[i].hi = mid;
        }
        if (st[i].lo >= st[i].hi) {
          result[i] = {st[i].lo, ctxs[i].diag - st[i].lo};
        }
      }
    }
  }

  stats.shared_search += shm.end_phase(shared_before);
  return result;
}

std::span<const word> simulate_block_merge(
    gpusim::SharedMemory& shm, std::span<const ThreadMergeCtx> ctxs, u32 E,
    bool write_back, gpusim::KernelStats& stats, BlockScratch& scratch,
    bool realistic_refills) {
  WCM_SPAN("block_merge.merge");
  for (const ThreadMergeCtx& c : ctxs) {
    WCM_EXPECTS(c.elements() == E, "every thread must merge exactly E keys");
    WCM_EXPECTS(c.a_end <= shm.words() && c.b_end <= shm.words(),
                "segment outside shared memory");
  }

  const u32 w = shm.warp_size();
  const std::size_t t = ctxs.size();

  // Per-thread cursors and register file.
  std::vector<std::size_t>& ai = scratch.a_cursor;
  std::vector<std::size_t>& bi = scratch.b_cursor;
  std::vector<word>& regs = scratch.regs;
  std::vector<gpusim::LaneRead>& reads = scratch.reads;
  ai.resize(t);
  bi.resize(t);
  for (std::size_t i = 0; i < t; ++i) {
    ai[i] = ctxs[i].a_begin;
    bi[i] = ctxs[i].b_begin;
  }
  regs.resize(t * E);

  const auto before_merge = shm.begin_phase();
  for (std::size_t warp_start = 0; warp_start < t; warp_start += w) {
    const std::size_t warp_end = std::min<std::size_t>(warp_start + w, t);
    if (realistic_refills) {
      // Initial head loads: every thread fetches its A head, then its B
      // head, into registers (inactive lanes for empty segments).
      for (const bool side_a : {true, false}) {
        reads.clear();
        for (std::size_t i = warp_start; i < warp_end; ++i) {
          const std::size_t cur = side_a ? ai[i] : bi[i];
          const std::size_t end = side_a ? ctxs[i].a_end : ctxs[i].b_end;
          if (cur < end) {
            reads.push_back({static_cast<u32>(i - warp_start), cur});
          }
        }
        if (!reads.empty()) {
          shm.warp_read(reads);
        }
      }
    }
    for (u32 s = 0; s < E; ++s) {
      reads.clear();
      for (std::size_t i = warp_start; i < warp_end; ++i) {
        // Decide which side this thread consumes at iteration s.
        const bool a_avail = ai[i] < ctxs[i].a_end;
        const bool b_avail = bi[i] < ctxs[i].b_end;
        bool take_a;
        word value;
        if (a_avail && b_avail) {
          const word a = shm.peek(ai[i]);
          const word b = shm.peek(bi[i]);
          take_a = a <= b;  // A-priority
          value = take_a ? a : b;
        } else {
          WCM_EXPECTS(a_avail || b_avail,
                      "thread ran out of elements before step E");
          take_a = a_avail;
          value = shm.peek(take_a ? ai[i] : bi[i]);
        }
        const std::size_t addr = take_a ? ai[i]++ : bi[i]++;
        regs[i * E + s] = value;
        if (realistic_refills) {
          // The consumed value was already in registers; the iteration's
          // shared access is the *refill* of the consumed side's next
          // element (none when that segment is exhausted).
          const std::size_t next = take_a ? ai[i] : bi[i];
          const std::size_t end = take_a ? ctxs[i].a_end : ctxs[i].b_end;
          if (next < end) {
            reads.push_back({static_cast<u32>(i - warp_start), next});
          }
        } else {
          reads.push_back({static_cast<u32>(i - warp_start), addr});
        }
      }
      if (!reads.empty()) {
        shm.warp_read(reads);
      }
    }
    stats.warp_merge_steps += E;
  }
  stats.shared_merge_reads += shm.end_phase(before_merge);

  // Barrier, then thread-contiguous write-back of the register file, then
  // another barrier before anyone reads the merged output.
  if (write_back) {
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

  return regs;
}

gpusim::ir::KernelDesc describe_block_merge(u32 w, u32 b, u32 pad) {
  namespace ir = gpusim::ir;
  WCM_EXPECTS(w > 0 && b >= w && is_pow2(b),
              "block size must be a power of two no smaller than the warp");
  ir::KernelDesc d;
  d.kernel = "block-merge";
  d.w = w;
  d.b = b;
  d.pad = pad;
  const int e = d.add_symbol("E", ir::SymRole::parameter, 3,
                             static_cast<i64>(w) - 1, 2, 1);
  const int s = d.add_symbol("s", ir::SymRole::parameter, 0,
                             static_cast<i64>(w) - 2, 1, 0, e);
  const int wse = d.add_symbol("wsE", ir::SymRole::warp_shift, 0, 0, w, 0);
  const i64 last_warp = static_cast<i64>(w) * ((static_cast<i64>(b) - 1) /
                                               static_cast<i64>(w));
  d.symbols[static_cast<std::size_t>(wse)].max_form =
      ir::LinForm::sym(e, last_warp);
  d.symbols[static_cast<std::size_t>(wse)].step_form =
      ir::LinForm::sym(e, static_cast<i64>(w));
  d.words = ir::LinForm::sym(e, static_cast<i64>(b));
  const ir::LinForm tile_hi =
      ir::LinForm::sym(e, static_cast<i64>(b)) - ir::LinForm::constant(1);

  // Round r merges pairs of runs of half = 2^(r-1)*E elements with
  // tpp = 2^r threads per pair; a warp spans whole pairs while tpp <= w
  // (its merge sources form ONE contiguous w*E range) and part of one
  // pair afterwards (two contiguous ranges: an A part and a B part).
  // Non-power-of-two warps can straddle pair boundaries on both sides;
  // floor((w-1)/tpp)+2 pairs bound the warp's reach in that regime.
  const u32 rounds = log2_exact(b);
  for (u32 r = 1; r <= rounds; ++r) {
    const u64 tpp = u64{1} << r;
    const bool aligned = tpp <= w ? w % tpp == 0 : tpp % w == 0;
    const u64 npairs = !aligned ? (w - 1) / tpp + 2
                                : (tpp <= w ? w / tpp : 1);
    const std::string tag = " (round " + std::to_string(r) + ")";
    d.groups.push_back(ir::with_region(
        ir::window_group(
            "search probes" + tag, ir::GroupKind::read, w,
            ir::LinForm::sym(e, static_cast<i64>(npairs * (tpp / 2))),
            ir::LinForm::constant(static_cast<i64>(npairs)),
            "<= ceil(log2(half+1)) bisection iterations, A then B probes"),
        ir::LinForm::constant(0), tile_hi));
    d.groups.push_back(ir::with_region(
        ir::window_group(
            "merge reads" + tag, ir::GroupKind::read, w,
            aligned ? ir::LinForm::sym(e, static_cast<i64>(w))
                    : ir::LinForm::sym(e, static_cast<i64>(npairs * tpp)),
            ir::LinForm::constant(aligned ? (tpp <= w ? 1 : 2) : 1),
            "E lock-step iterations x b/w warps", /*atomic=*/false,
            /*theorem_site=*/true),
        ir::LinForm::constant(0), tile_hi));
  }
  d.groups.push_back(ir::barrier_group("pre/post write-back barrier"));
  d.groups.back().repeat = "2 per round";
  ir::StepGroup wb = ir::affine_group(
      "merged write-back", ir::GroupKind::write, w,
      ir::LinForm::sym(wse) + ir::LinForm::sym(s), ir::LinForm::sym(e),
      "E steps x b/w warps x log2(b) rounds");
  wb.masked = b % w != 0;
  d.groups.push_back(std::move(wb));
  return d;
}

}  // namespace wcm::sort
