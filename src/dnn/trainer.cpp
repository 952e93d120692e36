#include "dnn/trainer.hpp"

#include <algorithm>

namespace ca::dnn {

Trainer::Trainer(Harness& harness, Model& model, TrainerOptions options)
    : harness_(&harness), model_(&model), options_(options) {
  auto& engine = harness_->engine();
  engine.set_kernel_hook([this] {
    auto& rt = harness_->runtime();
    const std::size_t resident = rt.manager().resident_bytes();
    peak_resident_ = std::max(peak_resident_, resident);
    if (options_.occupancy != nullptr) {
      options_.occupancy->record(rt.clock().now(),
                                 static_cast<double>(resident));
    }
  });
}

Trainer::~Trainer() { harness_->engine().set_kernel_hook(nullptr); }

IterationMetrics Trainer::run_iteration() {
  auto& engine = harness_->engine();
  auto& rt = harness_->runtime();

  const auto dram0 = rt.counters().device(sim::kFast);
  const auto nvram0 = rt.counters().device(sim::kSlow);
  const double t0 = rt.clock().now();
  const double compute0 = rt.clock().spent(sim::TimeCategory::kCompute);
  const double move0 = rt.clock().spent(sim::TimeCategory::kMovement);
  const double gc0 = rt.clock().spent(sim::TimeCategory::kGc);
  const twolm::CacheStats cache0 =
      harness_->cache() != nullptr ? harness_->cache()->stats()
                                   : twolm::CacheStats{};
  const dm::DataManager::AsyncStats async0 = rt.manager().async_stats();
  const telemetry::KernelCounters kernels0 =
      engine.stats().kernel_counters;
  peak_resident_ = rt.manager().resident_bytes();

  IterationMetrics m;
  {
    // Fresh input and labels each iteration (randomly generated, §IV-A).
    const std::uint64_t seed = options_.seed + 31 * iter_;
    Tensor input = engine.tensor(model_->input_shape(), "input");
    engine.fill_normal(input, 1.0f, seed);
    Tensor labels =
        engine.tensor({model_->spec().batch}, "labels");
    engine.fill_labels(labels, model_->spec().classes, seed ^ 0x5555);

    Tensor logits = model_->forward(engine, input);
    m.loss = engine.softmax_ce_loss(logits, labels);
    engine.backward();
    engine.sgd_step(options_.lr);
  }  // input/labels handles drop here; end_iteration collects them
  engine.end_iteration();

  // Step boundary: join every in-flight real copy and retire what the
  // clock has caught up with, so no mover work leaks across iterations
  // (and the TSan suite can prove the overlap race-free).
  rt.manager().drain_transfers();

  m.seconds = rt.clock().now() - t0;
  m.compute_seconds =
      rt.clock().spent(sim::TimeCategory::kCompute) - compute0;
  m.movement_seconds =
      rt.clock().spent(sim::TimeCategory::kMovement) - move0;
  m.gc_seconds = rt.clock().spent(sim::TimeCategory::kGc) - gc0;
  m.dram = rt.counters().delta(sim::kFast, dram0);
  m.nvram = rt.counters().delta(sim::kSlow, nvram0);
  m.peak_resident_bytes = peak_resident_;

  const auto& async1 = rt.manager().async_stats();
  m.async_transfers = async1.scheduled - async0.scheduled;
  m.async_stall_seconds = async1.stall_seconds - async0.stall_seconds;
  m.async_overlap_seconds = async1.overlap_seconds - async0.overlap_seconds;
  m.async_inflight_peak = async1.inflight_peak;
  m.kernels = engine.stats().kernel_counters.delta(kernels0);

  if (harness_->cache() != nullptr) {
    const auto& now = harness_->cache()->stats();
    m.cache.accesses = now.accesses - cache0.accesses;
    m.cache.hits = now.hits - cache0.hits;
    m.cache.clean_misses = now.clean_misses - cache0.clean_misses;
    m.cache.dirty_misses = now.dirty_misses - cache0.dirty_misses;
  }

  const double peak_dram_bw = rt.platform().spec(sim::kFast).read_bw.peak();
  if (m.seconds > 0.0) {
    m.dram_bus_utilization =
        static_cast<double>(m.dram.total()) / (peak_dram_bw * m.seconds);
    m.dram_bus_utilization = std::min(m.dram_bus_utilization, 1.0);
  }

  ++iter_;
  return m;
}

}  // namespace ca::dnn
