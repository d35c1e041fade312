#include "sort/registry.hpp"

#include <bit>

#include "sort/bitonic.hpp"
#include "sort/describe.hpp"
#include "sort/multiway.hpp"
#include "sort/radix.hpp"
#include "sort/shearsort.hpp"
#include "util/check.hpp"

namespace wcm::sort {

namespace {

using Desc = gpusim::ir::KernelDesc;
using Out = std::vector<word>*;

// Adapters from each engine's own entry points to the uniform row
// signatures: P is the EngineParams field the engine reads, if any.
template <Desc (*F)(u32, u32, u32)>
Desc describe(u32 w, u32 b, u32 pad, const EngineParams&) {
  return F(w, b, pad);
}
template <auto P, Desc (*F)(u32, u32, u32, u32)>
Desc describe(u32 w, u32 b, u32 pad, const EngineParams& p) {
  return F(w, b, pad, p.*P);
}
template <SortReport (*F)(std::span<const word>, const SortConfig&,
                          const gpusim::Device&, Out)>
SortReport run(std::span<const word> in, const SortConfig& cfg,
               const gpusim::Device& dev, const EngineParams&, Out out) {
  return F(in, cfg, dev, out);
}
template <auto P, auto F>
SortReport run(std::span<const word> in, const SortConfig& cfg,
               const gpusim::Device& dev, const EngineParams& p, Out out) {
  return F(in, cfg, dev, p.*P, out);
}

constexpr EngineParam kLibrary{"library", nullptr, 0, 0};
constexpr EngineParam kWays{"ways", &EngineParams::ways, 2, 64};
constexpr EngineParam kDigitBits{"digit_bits", &EngineParams::digit_bits, 1,
                                 16};

constexpr EngineInfo kEngines[] = {
    {EngineId::blocksort, "blocksort", describe<describe_blocksort>, nullptr,
     {}},
    {EngineId::block_merge, "block-merge", describe<describe_block_merge>,
     nullptr, {}},
    {EngineId::pairwise, "pairwise", describe<describe_pairwise>,
     run<&EngineParams::library, pairwise_merge_sort>, kLibrary},
    {EngineId::multiway, "multiway",
     describe<&EngineParams::ways, describe_multiway>,
     run<&EngineParams::ways, multiway_merge_sort>, kWays},
    {EngineId::bitonic, "bitonic", describe<describe_bitonic>,
     run<bitonic_sort>, {}, /*fixed_E=*/2, /*pow2_n=*/true},
    {EngineId::radix, "radix",
     describe<&EngineParams::digit_bits, describe_radix>,
     run<&EngineParams::digit_bits, radix_sort>, kDigitBits},
    {EngineId::scan, "scan", describe<describe_block_scan>, nullptr, {}, 0,
     false, /*pow2_w=*/true, /*whole_warps=*/true},
    {EngineId::shearsort, "shearsort", describe<describe_shearsort>,
     run<shearsort>, {}, 0, false, false, /*whole_warps=*/true},
};

std::string names(bool runnable_only) {
  std::string out;
  for (const EngineInfo& e : kEngines) {
    if (runnable_only && e.run == nullptr) {
      continue;
    }
    out += out.empty() ? e.name : std::string(", ") + e.name;
  }
  return out;
}

}  // namespace

std::span<const EngineInfo> engines() noexcept { return kEngines; }

const EngineInfo& engine_info(EngineId id) noexcept {
  return kEngines[static_cast<std::size_t>(id)];
}

const EngineInfo& find_engine(std::string_view name) {
  for (const EngineInfo& e : kEngines) {
    if (name == e.name) {
      return e;
    }
  }
  throw parse_error("unknown engine '" + std::string(name) +
                    "' (registered: " + names(false) + ")");
}

const EngineInfo& find_runnable(std::string_view name) {
  const EngineInfo& e = find_engine(name);
  if (e.run == nullptr) {
    throw parse_error("engine '" + std::string(name) +
                      "' only runs inside pairwise (runnable: " +
                      names(true) + ")");
  }
  return e;
}

std::string param_error(const EngineInfo& engine,
                        const EngineParams& params) {
  const EngineParam& p = engine.param;
  if (p.field == nullptr) {
    return {};
  }
  const u32 value = params.*p.field;
  if (value >= p.min && value <= p.max) {
    return {};
  }
  return std::string(p.name) + " must be in [" + std::to_string(p.min) +
         ", " + std::to_string(p.max) + "], got " + std::to_string(value);
}

const char* shape_error(const EngineInfo& engine, u32 w, u32 b) noexcept {
  if (w == 0 || b < w) {
    return "block smaller than the warp";
  }
  if (!is_pow2(b)) {
    return "block size not a power of two";
  }
  if (engine.pow2_w && !is_pow2(w)) {
    return "warp size not a power of two";
  }
  if (engine.whole_warps && b % w != 0) {
    return "block not a multiple of the warp";
  }
  return nullptr;
}

void check(const EngineInfo& engine, const SortConfig& cfg,
           const EngineParams& params) {
  if (const std::string why = param_error(engine, params); !why.empty()) {
    throw config_error(std::string(engine.name) + ": " + why);
  }
  if (const char* why = shape_error(engine, cfg.w, cfg.b)) {
    throw config_error(std::string(engine.name) + ": " + why + " (w=" +
                       std::to_string(cfg.w) + ", b=" + std::to_string(cfg.b) +
                       ")");
  }
}

SortConfig launch_config(const EngineInfo& engine, const SortConfig& cfg) {
  SortConfig out = cfg;
  if (engine.fixed_E != 0) {
    out.E = engine.fixed_E;
  }
  return out;
}

SortReport launch(const EngineInfo& engine, std::span<const word> input,
                  const SortConfig& cfg, const gpusim::Device& dev,
                  const EngineParams& params, std::vector<word>* output) {
  WCM_CHECK_CONFIG(engine.run != nullptr,
                   std::string(engine.name) + " only runs inside pairwise");
  cfg.validate();
  check(engine, cfg, params);
  WCM_CHECK_CONFIG(cfg.w == dev.warp_size,
                   "config warp size must match device");
  const SortConfig run_cfg = launch_config(engine, cfg);
  if (engine.pow2_n) {
    input = input.first(std::bit_floor(input.size()));
  }
  WCM_CHECK_CONFIG(!input.empty() && input.size() % run_cfg.tile() == 0,
                   std::string(engine.name) +
                       ": input size must be a positive multiple of the "
                       "tile bE");
  return engine.run(input, run_cfg, dev, params, output);
}

}  // namespace wcm::sort
