#pragma once
// Deterministic, seedable pseudo-random generation.  Every stochastic input
// in the repository flows through this generator so experiments are exactly
// reproducible across runs and platforms (std::mt19937 would also work, but
// splitmix64/xoshiro256** are faster and have a trivially portable spec).

#include <cstddef>
#include <cstdint>
#include <utility>

#include "util/math.hpp"

namespace wcm {

/// splitmix64: used to seed xoshiro and as a standalone mixer.
[[nodiscard]] u64 splitmix64(u64& state) noexcept;

/// Derive the seed of logical stream `stream` from a root seed.  Parallel
/// jobs that each seed their own generator with `fork_seed(root, index)`
/// draw statistically independent sequences that depend only on (root,
/// index) — never on which worker ran the job or in what order — which is
/// what makes campaign results byte-identical across thread counts.
[[nodiscard]] u64 fork_seed(u64 root_seed, u64 stream) noexcept;

/// xoshiro256** 1.0 (Blackman & Vigna).  Satisfies UniformRandomBitGenerator.
class Xoshiro256 {
 public:
  using result_type = u64;

  explicit Xoshiro256(u64 seed) noexcept;

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return ~static_cast<result_type>(0);
  }

  result_type operator()() noexcept;

  /// Uniform draw from [0, bound) without modulo bias (Lemire's method).
  [[nodiscard]] u64 below(u64 bound);

  /// Split off an independent child generator for logical stream `stream`
  /// without perturbing this generator (const: forking is not a draw).
  /// Children forked from the same state with distinct streams are
  /// pairwise independent; fork(i) is a pure function of (state, i), so a
  /// set of parallel jobs seeded by fork(job_index) is reproducible
  /// regardless of worker scheduling.
  [[nodiscard]] Xoshiro256 fork(u64 stream) const noexcept;

 private:
  u64 s_[4];
};

/// Fisher–Yates shuffle driven by Xoshiro256, over a random-access range
/// (a std::vector, a std::span).  The draws depend only on v.size(), so two
/// ranges of one length shuffled from equal generator states get the same
/// permutation.
template <typename Range>
void shuffle(Range&& v, Xoshiro256& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.below(i));
    using std::swap;
    swap(v[i - 1], v[j]);
  }
}

}  // namespace wcm
