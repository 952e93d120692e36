#include "dnn/harness.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ca::dnn {

Harness::Harness(const HarnessConfig& config) : config_(config) {
  // In 2LM modes the DRAM device *is* the hardware cache: the object heap
  // lives entirely in NVRAM.  In app-direct modes both devices hold heaps.
  // A zero DRAM budget (Fig. 7's left edge) still needs a token arena so
  // the platform is well-formed; no allocation ever lands there.
  const std::size_t dram_arena =
      std::max<std::size_t>(config.dram_bytes, 64 * util::KiB);
  sim::Platform platform =
      sim::Platform::cascade_lake_scaled(dram_arena, config.nvram_bytes);
  platform.mover_channels = std::max<std::size_t>(1, config.mover_channels);

  const bool eager = config.mode == Mode::kTwoLmM ||
                     config.mode == Mode::kCaLM ||
                     config.mode == Mode::kCaLMP ||
                     config.mode == Mode::kNvramOnly;

  core::Runtime::PolicyFactory factory;
  switch (config.mode) {
    case Mode::kTwoLmNone:
    case Mode::kTwoLmM:
    case Mode::kNvramOnly:
      factory = [eager](dm::DataManager& dm) {
        return std::make_unique<policy::PinnedDevicePolicy>(dm, sim::kSlow,
                                                            eager);
      };
      break;
    case Mode::kCaNone:
    case Mode::kCaL:
    case Mode::kCaLM:
    case Mode::kCaLMP: {
      policy::LruPolicyConfig cfg;
      cfg.local_alloc = config.mode != Mode::kCaNone;
      cfg.eager_retire = eager;
      cfg.prefetch = config.mode == Mode::kCaLMP;
      cfg.min_migratable = config.min_migratable;
      cfg.async_movement = config.async_movement;
      if (config.async_movement) cfg.prefetch_distance = config.prefetch_distance;
      factory = [cfg](dm::DataManager& dm) {
        return std::make_unique<policy::LruPolicy>(dm, cfg);
      };
      break;
    }
  }

  rt_ = std::make_unique<core::Runtime>(std::move(platform), factory);

  if (is_two_lm(config.mode)) {
    twolm::CacheConfig cc;
    cc.capacity = config.dram_bytes;
    cc.kernel_threads = config.kernel_threads;
    cache_ = std::make_unique<twolm::DirectMappedCache>(
        cc, rt_->platform(), rt_->counters());
    ctx_ = std::make_unique<TwoLmExecContext>(*rt_, *cache_,
                                              config.kernel_threads);
  } else {
    ctx_ = std::make_unique<CaExecContext>(*rt_, config.kernel_threads);
  }

  EngineConfig ec;
  ec.backend = config.backend;
  ec.issue_retire = eager;
  ec.compute_efficiency = config.compute_efficiency;
  ec.conv_read_passes = config.conv_read_passes;
  ec.kernel_threads = config.kernel_threads;
  engine_ = std::make_unique<Engine>(*rt_, *ctx_, ec);
}

}  // namespace ca::dnn
