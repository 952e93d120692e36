// Experiment harness: wires up a complete system for one of the paper's
// operating modes (§IV):
//
//   2LM: 0    memory mode, no memory optimizations
//   2LM: M    memory mode + eager memory freeing
//   CA: 0     CachedArrays, no optimizations (true-cache emulation:
//             objects born in NVRAM, faulted to DRAM before use)
//   CA: L     + local (DRAM-direct) allocation
//   CA: LM    + eager retire
//   CA: LMP   + prefetch on will_read
//   NVRAM-only  app direct with zero DRAM (Fig. 7 left edge)
//
// A Harness owns the runtime, the execution context (device-direct or
// 2LM-cache-filtered), and the engine; benches and integration tests only
// deal in Modes.
#pragma once

#include <memory>
#include <string>

#include "dnn/engine.hpp"
#include "policy/lru_policy.hpp"
#include "policy/static_policy.hpp"
#include "twolm/direct_mapped_cache.hpp"

namespace ca::dnn {

enum class Mode {
  kTwoLmNone,
  kTwoLmM,
  kCaNone,
  kCaL,
  kCaLM,
  kCaLMP,
  kNvramOnly,
};

[[nodiscard]] constexpr const char* to_string(Mode mode) noexcept {
  switch (mode) {
    case Mode::kTwoLmNone:
      return "2LM: 0";
    case Mode::kTwoLmM:
      return "2LM: M";
    case Mode::kCaNone:
      return "CA: 0";
    case Mode::kCaL:
      return "CA: L";
    case Mode::kCaLM:
      return "CA: LM";
    case Mode::kCaLMP:
      return "CA: LMP";
    case Mode::kNvramOnly:
      return "NVRAM only";
  }
  return "?";
}

[[nodiscard]] constexpr bool is_two_lm(Mode mode) noexcept {
  return mode == Mode::kTwoLmNone || mode == Mode::kTwoLmM;
}

struct HarnessConfig {
  Mode mode = Mode::kCaLM;
  std::size_t dram_bytes = 180 * util::MiB;
  std::size_t nvram_bytes = 1300 * util::MiB;
  Backend backend = Backend::kSim;
  double compute_efficiency = 0.35;  ///< usually from the ModelSpec
  int conv_read_passes = 2;          ///< usually from the ModelSpec
  std::size_t kernel_threads = 8;

  /// LruPolicy small-object threshold (CA modes only); see LruPolicyConfig.
  std::size_t min_migratable = 64 * util::KiB;

  /// Asynchronous staging (SV-c future work): prefetches overlap with
  /// execution on a background mover, and eviction writebacks run
  /// write-behind on the mover's writeback channels.  CA modes only.
  bool async_movement = false;

  /// Background-mover channels (Platform::mover_channels).  1 = a single
  /// fully-serialized mover, the ablation baseline.
  std::size_t mover_channels = 4;

  /// With async_movement: issue look-ahead prefetches this many objects
  /// ahead along the archive trace during the backward pass.  0 disables.
  std::size_t prefetch_distance = 0;
};

class Harness {
 public:
  explicit Harness(const HarnessConfig& config);

  [[nodiscard]] core::Runtime& runtime() noexcept { return *rt_; }
  [[nodiscard]] Engine& engine() noexcept { return *engine_; }
  [[nodiscard]] const HarnessConfig& config() const noexcept {
    return config_;
  }

  /// The 2LM cache model (nullptr in app-direct modes).
  [[nodiscard]] twolm::DirectMappedCache* cache() noexcept {
    return cache_.get();
  }

 private:
  HarnessConfig config_;
  std::unique_ptr<core::Runtime> rt_;
  std::unique_ptr<twolm::DirectMappedCache> cache_;
  std::unique_ptr<ExecContext> ctx_;
  std::unique_ptr<Engine> engine_;
};

}  // namespace ca::dnn
