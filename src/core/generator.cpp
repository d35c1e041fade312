#include "core/generator.hpp"

#include <numeric>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace wcm::core {

namespace {

struct GeneratorState {
  const sort::SortConfig* cfg = nullptr;
  const AttackOptions* opts = nullptr;
  WarpAssignment l;
  WarpAssignment r;
  std::vector<bool> block_mask;  // cached attack mask of one bE tile
  std::vector<dmm::word>* out = nullptr;
  Xoshiro256 rng{0};
};

/// Attack mask for an intra-block pair of `size` output elements
/// (size = 2^i E with 2^i threads, spanning size / (wE) >= 2 warps).
std::vector<bool> intra_attack_mask(const GeneratorState& g,
                                    std::size_t size) {
  const sort::SortConfig& cfg = *g.cfg;
  const std::size_t warp_span = static_cast<std::size_t>(cfg.w) * cfg.E;
  WCM_EXPECTS(size % warp_span == 0 && (size / warp_span) % 2 == 0,
              "intra-block attack needs an even number of warps");
  const std::size_t warps = size / warp_span;

  std::vector<bool> mask(size, false);
  std::size_t rank = 0;
  for (std::size_t q = 0; q < warps; ++q) {
    const WarpAssignment& wa = q < warps / 2 ? g.l : g.r;
    for (u32 t = 0; t < cfg.w; ++t) {
      const ThreadAssign& ta = wa.threads[t];
      const std::size_t a_lo = ta.a_first ? rank : rank + ta.from_b;
      for (u32 k = 0; k < ta.from_a; ++k) {
        mask[a_lo + k] = true;
      }
      rank += cfg.E;
    }
  }
  return mask;
}

void place(GeneratorState& g, std::vector<dmm::word> values, std::size_t base,
            std::size_t depth) {
  const sort::SortConfig& cfg = *g.cfg;
  const std::size_t size = values.size();
  const std::size_t tile = cfg.tile();
  const std::size_t warp_span = static_cast<std::size_t>(cfg.w) * cfg.E;

  // `depth` counts merge rounds from the *final* round downward: the split
  // of the full array is depth 0 (the last global round), its children
  // depth 1, and so on.
  const bool global_level = size > tile;
  const bool intra_attackable = g.opts->attack_intra_block &&
                                size <= tile && size >= 2 * warp_span &&
                                size % warp_span == 0 &&
                                (size / warp_span) % 2 == 0;
  const bool attacked = ((global_level && g.opts->attack_global_rounds &&
                          depth < g.opts->max_attacked_rounds) ||
                         intra_attackable);
  const bool keep_splitting = global_level || intra_attackable;

  if (!keep_splitting) {
    // Leaf segment: internal order is invisible to every level above (the
    // block sort re-sorts it), so identity or a seeded shuffle both work.
    if (g.opts->tile_shuffle_seed != 0) {
      shuffle(values, g.rng);
    }
    std::copy(values.begin(), values.end(),
              g.out->begin() + static_cast<std::ptrdiff_t>(base));
    return;
  }

  std::vector<bool> mask;
  if (!attacked) {
    mask = neutral_pair_mask(size);
  } else if (global_level) {
    // Tile the cached block mask across the pair's thread blocks.
    mask.reserve(size);
    for (std::size_t lo = 0; lo < size; lo += tile) {
      mask.insert(mask.end(), g.block_mask.begin(), g.block_mask.end());
    }
  } else {
    mask = intra_attack_mask(g, size);
  }

  UnmergeSplit split = unmerge(values, mask);
  WCM_ENSURES(split.a.size() == size / 2 && split.b.size() == size / 2,
              "unmerge must split a pair evenly");
  place(g, std::move(split.a), base, depth + 1);
  place(g, std::move(split.b), base + size / 2, depth + 1);
}

}  // namespace

void check_worst_case_shape(std::size_t n, const sort::SortConfig& cfg) {
  cfg.validate();
  WCM_CHECK_CONFIG(is_pow2(cfg.w), "worst-case input needs a power-of-two w");
  const ERegime regime = classify_e(cfg.w, cfg.E);
  WCM_CHECK_CONFIG(regime == ERegime::small || regime == ERegime::large,
                   "worst-case input needs gcd(w, E) == 1 and 3 <= E < w");
  const std::size_t tile = cfg.tile();
  WCM_CHECK_CONFIG(n >= 2 * tile && n % tile == 0 && is_pow2(n / tile),
                   "worst-case input needs n = bE * 2^k with k >= 1");
}

std::vector<dmm::word> worst_case_input(std::size_t n,
                                        const sort::SortConfig& cfg,
                                        const AttackOptions& opts) {
  check_worst_case_shape(n, cfg);

  GeneratorState g;
  g.cfg = &cfg;
  g.opts = &opts;
  g.l = worst_case_warp(cfg.w, cfg.E, WarpSide::L, opts.small_e_strategy);
  g.r = worst_case_warp(cfg.w, cfg.E, WarpSide::R, opts.small_e_strategy);
  g.block_mask = attack_block_mask(cfg, g.l, g.r);
  g.rng = Xoshiro256(opts.tile_shuffle_seed);

  std::vector<dmm::word> out(n);
  g.out = &out;

  std::vector<dmm::word> all(n);
  std::iota(all.begin(), all.end(), dmm::word{0});
  place(g, std::move(all), 0, 0);
  return out;
}

std::size_t attacked_round_count(std::size_t n, const sort::SortConfig& cfg) {
  const std::size_t tile = cfg.tile();
  WCM_EXPECTS(n % tile == 0 && is_pow2(n / tile), "n must be bE * 2^k");
  return log2_exact(n / tile);
}

}  // namespace wcm::core
