#pragma once
// The engine registry: the one table of every simulated sort engine.  Each
// row names the engine and carries its describer (sort/describe.hpp), its
// run function (null for the describe-only building blocks), the one
// parameter it reads with that parameter's valid range, and its shape
// constraints.  Every front end — `wcmgen sort`/`profile`/`prove`/`verify`,
// the campaign runtime, the prover, the verifier's differential and the
// defense bench — resolves engine names, validates parameters and launches
// engines through this table, so they cannot disagree, and adding an
// engine takes one row (docs/API.md "Engines").

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "gpusim/access_ir.hpp"
#include "sort/pairwise_sort.hpp"

namespace wcm::sort {

/// Every registered engine, in registry (and `wcmgen prove --engine all`)
/// order.
enum class EngineId : std::uint8_t {
  blocksort,
  block_merge,
  pairwise,
  multiway,
  bitonic,
  radix,
  scan,
  shearsort,
};

/// The per-engine knobs.  Each engine reads at most one of them
/// (EngineInfo::param); the defaults match the front ends' flag defaults.
struct EngineParams {
  MergeSortLibrary library = MergeSortLibrary::thrust;  ///< pairwise
  u32 ways = 4;                                         ///< multiway fan-in
  u32 digit_bits = 4;                                   ///< radix digit width
};

/// The parameter one engine reads: its name, and for the numeric ones the
/// EngineParams field and its inclusive valid range.
struct EngineParam {
  const char* name = nullptr;  ///< null: the engine takes no parameter
  u32 EngineParams::*field = nullptr;  ///< null: not numeric (library)
  u32 min = 0;
  u32 max = 0;

  [[nodiscard]] bool is(std::string_view param) const noexcept {
    return name != nullptr && param == name;
  }
};

struct EngineInfo {
  EngineId id;
  const char* name;
  gpusim::ir::KernelDesc (*describe)(u32 w, u32 b, u32 pad,
                                     const EngineParams& params);
  /// Null for the describe-only engines (blocksort, block-merge, scan),
  /// which only run inside the pairwise engine.
  SortReport (*run)(std::span<const word> input, const SortConfig& cfg,
                    const gpusim::Device& dev, const EngineParams& params,
                    std::vector<word>* output);
  EngineParam param;
  /// Shape constraints beyond "b is a power of two, at least w".
  u32 fixed_E = 0;           ///< non-zero: launch() always runs at this E
  bool pow2_n = false;       ///< launch() sorts the largest power-of-two prefix
  bool pow2_w = false;       ///< the warp width must be a power of two
  bool whole_warps = false;  ///< the block must be a multiple of the warp
};

/// The table, in EngineId order.
[[nodiscard]] std::span<const EngineInfo> engines() noexcept;

[[nodiscard]] const EngineInfo& engine_info(EngineId id) noexcept;

/// The engine called `name`.  Throws wcm::parse_error listing every
/// registered name when there is none.
[[nodiscard]] const EngineInfo& find_engine(std::string_view name);

/// find_engine() for front ends that run the engine: a describe-only name
/// also throws wcm::parse_error, listing the runnable ones.
[[nodiscard]] const EngineInfo& find_runnable(std::string_view name);

/// Why `params` are outside the engine's range; empty when they are not.
[[nodiscard]] std::string param_error(const EngineInfo& engine,
                                      const EngineParams& params);

/// Why the engine cannot take a (w, b) machine shape; null when it can.
[[nodiscard]] const char* shape_error(const EngineInfo& engine, u32 w,
                                      u32 b) noexcept;

/// Throws wcm::config_error, naming the engine, on a parameter outside its
/// range or a (cfg.w, cfg.b) shape it cannot take.  cfg.validate() (the
/// engine-independent launch rules) is the caller's, or launch()'s.
void check(const EngineInfo& engine, const SortConfig& cfg,
           const EngineParams& params);

/// The configuration the engine actually runs: cfg with fixed_E applied.
[[nodiscard]] SortConfig launch_config(const EngineInfo& engine,
                                       const SortConfig& cfg);

/// Validate (cfg.validate(), check(), the device's warp width, a whole
/// number of tiles) and run the engine on `input` — only its largest
/// power-of-two prefix for pow2_n engines — under launch_config(cfg).
/// Every failed precondition throws wcm::config_error.
[[nodiscard]] SortReport launch(const EngineInfo& engine,
                                std::span<const word> input,
                                const SortConfig& cfg,
                                const gpusim::Device& dev,
                                const EngineParams& params = {},
                                std::vector<word>* output = nullptr);

}  // namespace wcm::sort
