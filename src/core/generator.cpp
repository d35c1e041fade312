#include "core/generator.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <span>

#include "core/unmerge.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace wcm::core {

namespace {

/// Per-rank origin of one level's pairs, 1 = from A.  Its length is the
/// mask's period: a level's pair size is a multiple of it.
using Mask = std::vector<unsigned char>;

/// Attack mask for an intra-block pair of `size` output elements
/// (size = 2^i E with 2^i threads, spanning size / (wE) >= 2 warps).
Mask intra_attack_mask(const sort::SortConfig& cfg, const WarpAssignment& l,
                       const WarpAssignment& r, std::size_t size) {
  const std::size_t warp_span = static_cast<std::size_t>(cfg.w) * cfg.E;
  WCM_EXPECTS(size % warp_span == 0 && (size / warp_span) % 2 == 0,
              "intra-block attack needs an even number of warps");
  const std::size_t warps = size / warp_span;

  Mask mask(size, 0);
  std::size_t rank = 0;
  for (std::size_t q = 0; q < warps; ++q) {
    const WarpAssignment& wa = q < warps / 2 ? l : r;
    for (u32 t = 0; t < cfg.w; ++t) {
      const ThreadAssign& ta = wa.threads[t];
      const std::size_t a_lo = ta.a_first ? rank : rank + ta.from_b;
      std::fill_n(mask.begin() + static_cast<std::ptrdiff_t>(a_lo), ta.from_a,
                  1);
      rank += cfg.E;
    }
  }
  return mask;
}

/// Unmerge one level: stable-partition every `size`-element segment of
/// `src` into its A half (mask 1) and B half in `dst`.  The destination is
/// selected, never written twice, so a full A half cannot spill into B.
/// With kCount, returns the level's cross inversions: the segment is
/// sorted, so each A-bound element is below every B-bound one passed
/// before it.
template <bool kCount>
u64 split_level(std::span<const dmm::word> src, std::span<dmm::word> dst,
                std::size_t size, const Mask& mask) {
  const std::size_t period = mask.size();
  u64 cross = 0;
  for (std::size_t base = 0; base < src.size(); base += size) {
    const dmm::word* in = src.data() + base;
    dmm::word* a = dst.data() + base;
    dmm::word* b = a + size / 2;
    const dmm::word* const b_first = b;
    for (std::size_t lo = 0; lo < size; lo += period) {
      for (std::size_t i = 0; i < period; ++i) {
        const std::size_t to_a = mask[i];
        *(to_a != 0 ? a : b) = in[lo + i];
        if constexpr (kCount) {
          cross += to_a * static_cast<std::size_t>(b - b_first);
        }
        a += to_a;
        b += 1 - to_a;
      }
    }
  }
  return cross;
}

/// Shuffle every `leaf`-element segment of `keys` in place, left to right.
void shuffle_leaves(std::span<dmm::word> keys, std::size_t leaf,
                    Xoshiro256& rng) {
  for (std::size_t base = 0; base < keys.size(); base += leaf) {
    shuffle(keys.subspan(base, leaf), rng);
  }
}

/// shuffle_leaves() from `src` into `dst` through rank indices shuffled
/// with the same draws; returns the leaves' inversions.  Every leaf of
/// `src` is sorted, so a leaf's inversions are its rank permutation's.
/// The ranks placed so far are bits of `seen`, and a complete binary tree
/// over its 64-rank words counts them per subtree: walking a rank's word
/// down from the root adds the left subtrees it passes, in a loop of fixed
/// length, so the count costs no mispredicted branch.
u64 shuffle_leaves_counted(std::span<const dmm::word> src,
                           std::span<dmm::word> dst, std::size_t leaf,
                           Xoshiro256& rng) {
  const auto depth = static_cast<unsigned>(std::bit_width((leaf - 1) / 64));
  std::vector<u32> rank(leaf);
  std::vector<u64> seen(std::size_t{1} << depth);
  std::vector<u32> tree(std::size_t{2} << depth);  // root at 1
  u64 inversions = 0;
  for (std::size_t base = 0; base < src.size(); base += leaf) {
    std::iota(rank.begin(), rank.end(), u32{0});
    shuffle(rank, rng);
    std::fill(seen.begin(), seen.end(), u64{0});
    std::fill(tree.begin(), tree.end(), u32{0});
    for (std::size_t i = 0; i < leaf; ++i) {
      const std::size_t r = rank[i];
      dst[base + i] = src[base + r];
      const std::size_t word = r / 64;
      const u64 bit = u64{1} << (r % 64);
      u64 below = static_cast<u64>(std::popcount(seen[word] & (bit - 1)));
      seen[word] |= bit;
      std::size_t node = 1;
      for (unsigned level = depth; level-- > 0;) {
        const std::size_t right = (word >> level) & 1;
        below += right * tree[2 * node];
        node = 2 * node + right;
        ++tree[node];
      }
      inversions += i - below;
    }
  }
  return inversions;
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
                                        const AttackOptions& opts,
                                        u64* inversions) {
  check_worst_case_shape(n, cfg);

  const WarpAssignment l =
      worst_case_warp(cfg.w, cfg.E, WarpSide::L, opts.small_e_strategy);
  const WarpAssignment r =
      worst_case_warp(cfg.w, cfg.E, WarpSide::R, opts.small_e_strategy);
  const std::vector<bool> block_bits = attack_block_mask(cfg, l, r);
  const Mask block_mask(block_bits.begin(), block_bits.end());
  const std::size_t tile = cfg.tile();
  const std::size_t warp_span = static_cast<std::size_t>(cfg.w) * cfg.E;

  std::vector<dmm::word> keys(n);
  std::vector<dmm::word> spare(n);
  std::iota(keys.begin(), keys.end(), dmm::word{0});
  u64 count = 0;

  // `size` is the level's pair size; `depth` counts merge rounds from the
  // *final* round downward (the split of the full array is depth 0).
  std::size_t size = n;
  for (std::size_t depth = 0;; size /= 2, ++depth) {
    const bool global_level = size > tile;
    const bool intra_level = opts.attack_intra_block && !global_level &&
                             size >= 2 * warp_span && size % warp_span == 0 &&
                             (size / warp_span) % 2 == 0;
    if (!global_level && !intra_level) {
      break;  // `size` is the leaf size
    }
    const bool attacked =
        intra_level || (opts.attack_global_rounds &&
                        depth < opts.max_attacked_rounds);
    if (!attacked) {
      continue;  // neutral split: A is the lower half, already in place
    }
    const Mask mask =
        global_level ? block_mask : intra_attack_mask(cfg, l, r, size);
    const auto from_a =
        static_cast<std::size_t>(std::count(mask.begin(), mask.end(), 1));
    WCM_ENSURES(2 * from_a == mask.size(), "unmerge must split a pair evenly");
    count += inversions != nullptr
                 ? split_level<true>(keys, spare, size, mask)
                 : split_level<false>(keys, spare, size, mask);
    keys.swap(spare);
  }

  // Leaves: their internal order is invisible to every level above (the
  // block sort re-sorts them), so identity or a seeded shuffle both work.
  if (opts.tile_shuffle_seed != 0) {
    Xoshiro256 rng(opts.tile_shuffle_seed);
    if (inversions != nullptr) {
      count += shuffle_leaves_counted(keys, spare, size, rng);
      keys.swap(spare);
    } else {
      shuffle_leaves(keys, size, rng);
    }
  }
  if (inversions != nullptr) {
    *inversions = count;
  }
  return keys;
}

std::size_t attacked_round_count(std::size_t n, const sort::SortConfig& cfg) {
  const std::size_t tile = cfg.tile();
  WCM_EXPECTS(n % tile == 0 && is_pow2(n / tile), "n must be bE * 2^k");
  return log2_exact(n / tile);
}

}  // namespace wcm::core
