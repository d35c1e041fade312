#include "sort/rounds.hpp"

#include <utility>

#include "sort/blocksort.hpp"
#include "util/parallel.hpp"

namespace wcm::sort {

BlockFanOut::BlockFanOut(const SortConfig& cfg, std::size_t max_blocks) {
  const u32 width =
      cfg.trace_sink != nullptr ? 1 : parallel_width(max_blocks);
  const gpusim::SharedLayout layout{cfg.w, cfg.padding, cfg.layout};
  workers_.reserve(width);
  for (u32 i = 0; i < width; ++i) {
    workers_.push_back({i, gpusim::SharedMemory(layout, cfg.tile()), {}});
  }
  workers_.front().shm.attach_trace(cfg.trace_sink);
}

gpusim::KernelStats BlockFanOut::run(std::size_t count, const Body& body) {
  slots_.assign(count, {});
  parallel_for(count, width(), [&](std::size_t block, u32 worker) {
    BlockWorker& w = workers_[worker];
    gpusim::KernelStats stats;  // on this worker's stack until complete
    w.shm.reset_stats();
    body(block, w, stats);
    stats.shared += w.shm.stats();
    slots_[block] = stats;
  });
  gpusim::KernelStats sum;
  for (const gpusim::KernelStats& s : slots_) {
    sum += s;
  }
  return sum;
}

void append_round(SortReport& report, const char* engine, std::string name,
                  const gpusim::KernelStats& stats,
                  const gpusim::LaunchConfig& launch,
                  const gpusim::Calibration& cal) {
  const gpusim::KernelTime t =
      gpusim::estimate_kernel_time(report.device, launch, stats, cal);
  gpusim::RoundStats round;
  round.name = std::move(name);
  round.kernel = stats;
  round.modeled_seconds = t.seconds;
  gpusim::record_round_telemetry(engine, round.name, report.config.E,
                                 report.config.padding, stats);
  report.totals += stats;
  report.total_time += t;
  report.rounds.push_back(std::move(round));
}

void block_sort_round(std::span<word> data, BlockFanOut& fan_out,
                      const char* engine, const gpusim::LaunchConfig& launch,
                      const gpusim::Calibration& cal, SortReport& report) {
  const SortConfig& cfg = report.config;
  const std::size_t tile = cfg.tile();
  const gpusim::KernelStats stats = fan_out.run(
      data.size() / tile,
      [&](std::size_t block, BlockWorker& worker,
          gpusim::KernelStats& block_stats) {
        simulate_block_sort(worker.shm, data.subspan(block * tile, tile), cfg,
                            block_stats, worker.scratch);
        block_stats.blocks_launched += 1;
        block_stats.elements_processed += tile;
      });
  append_round(report, engine, "block-sort", stats, launch, cal);
}

}  // namespace wcm::sort
