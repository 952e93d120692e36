// The four perfbench workloads and the measured loop that runs them.
//
// Every workload is one process, one model, one mode and a seeded input.
// The system is driven only through dnn::Harness, dnn::build_model,
// dnn::Trainer and dp::Trainer; per-layer counts come from the public stats
// accessors of dnn, core, policy, dm, mem, twolm, sim and comm.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "bench.hpp"
#include "comm/allreduce.hpp"
#include "dnn/dp_trainer.hpp"
#include "dnn/harness.hpp"
#include "dnn/models.hpp"
#include "dnn/trainer.hpp"
#include "policy/lru_policy.hpp"
#include "util/align.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using ca::dnn::Mode;
using ca::dnn::ModelSpec;
using ca::util::MiB;

constexpr double kMiB = 1024.0 * 1024.0;

// --- workload definitions -------------------------------------------------

enum class Kind { kSingle, kDataParallel };

struct Workload {
  std::string name;
  Kind kind = Kind::kSingle;
  ca::dnn::HarnessConfig harness;  ///< kSingle
  ModelSpec model;                 ///< kSingle
  ca::dp::TrainerConfig dp;        ///< kDataParallel (model inside)
  std::uint64_t trainer_seed = 1234;
  std::uint64_t init_seed = 1;
  int warmup = 1;  ///< iterations before the heaps reach steady state
  double fig2_cell_s = 0.0;  ///< EXPERIMENTS.md Fig. 2 cell, 0 = none
};

/// Simulated metrics are medians over exactly this many measured
/// iterations, so they do not depend on how many iterations the host
/// manages in the time budget.
constexpr std::size_t kSimWindow = 16;

/// The seed draws the DRAM capacity within +-kDramJitter of the workload's
/// (in 64 KiB steps), varying the footprint relative to DRAM; the default
/// seed (0) keeps it exactly.
constexpr double kDramJitter = 0.02;

/// setup_s is the median of this many set-ups in one run.
constexpr int kSetups = 3;

std::size_t draw_dram(std::size_t base, std::uint64_t seed) {
  if (seed == 0) return base;
  ca::util::Xoshiro256 rng(seed);
  const double bytes = static_cast<double>(base) *
                       (1.0 + rng.uniform(-kDramJitter, kDramJitter));
  const auto step = static_cast<double>(64 * ca::util::KiB);
  return static_cast<std::size_t>(std::lround(bytes / step)) * 64 * ca::util::KiB;
}

ca::dnn::HarnessConfig harness_for(const ModelSpec& spec, Mode mode,
                                   std::size_t dram, std::size_t nvram) {
  ca::dnn::HarnessConfig hc;
  hc.mode = mode;
  hc.dram_bytes = dram;
  hc.nvram_bytes = nvram;
  hc.backend = ca::dnn::Backend::kSim;
  hc.compute_efficiency = spec.compute_efficiency;
  hc.conv_read_passes = spec.conv_read_passes;
  return hc;
}

Workload make_workload(const Options& opt) {
  Workload w;
  w.name = opt.workload;
  w.trainer_seed = 1234 + opt.seed;
  w.init_seed = 1 + opt.seed;
  // Tiny smoke shape: the same paths on models and heaps small enough to
  // run every workload in seconds.
  const std::size_t dram = draw_dram(opt.tiny ? 2 * MiB : 180 * MiB, opt.seed);
  const std::size_t nvram =
      opt.nvram_mib != 0 ? opt.nvram_mib * MiB : (opt.tiny ? 32 * MiB : 1300 * MiB);

  if (w.name == "twolm_resnet") {
    w.model = opt.tiny ? ModelSpec::resnet_tiny() : ModelSpec::resnet200_large();
    w.harness = harness_for(w.model, Mode::kTwoLmNone, dram, nvram);
    w.fig2_cell_s = 378.2;
  } else if (w.name == "ca_densenet") {
    w.model =
        opt.tiny ? ModelSpec::densenet_tiny() : ModelSpec::densenet264_large();
    w.harness = harness_for(w.model, Mode::kCaLM, dram, nvram);
    // Simulated time per iteration climbs for the first ~7 iterations while
    // GC and defragmentation settle the heaps.
    w.warmup = 10;
    w.fig2_cell_s = 217.2;
  } else if (w.name == "ca_vgg_async") {
    w.model = opt.tiny ? ModelSpec::vgg_tiny() : ModelSpec::vgg416_large();
    w.harness = harness_for(w.model, Mode::kCaLMP, dram, nvram);
    w.harness.async_movement = true;
    w.harness.mover_channels = 4;
    w.harness.prefetch_distance = 2;
    // Look-ahead prefetch placement drifts for ~15 iterations.
    w.warmup = 16;
  } else if (w.name == "dp_vgg_k4") {
    w.kind = Kind::kDataParallel;
    // The micro_allreduce VGG-416-shaped replica: channels and batch scaled
    // so K replicas, their gradients and buckets share one scaled heap.
    w.model = opt.tiny ? ModelSpec::vgg_tiny() : ModelSpec::vgg416_large();
    if (!opt.tiny) {
      w.model.base_channels = 4;
      w.model.batch = 4;
    }
    w.dp.workers = 4;
    w.dp.model = w.model;
    w.dp.bucket_bytes = opt.tiny ? 64 * ca::util::KiB : MiB;
    w.dp.overlap = true;
    w.dp.link = ca::comm::LinkModel::ethernet_25g_scaled();
    w.dp.seed = w.trainer_seed;
    // Shared DRAM below the replicas' unconstrained 108 MiB peak, so the
    // four tenants contend: evictions and cross-tenant refusals.
    w.dp.dram_bytes = draw_dram(opt.tiny ? 4 * MiB : 100 * MiB, opt.seed);
    w.dp.nvram_bytes = nvram;
    // The first step builds the bucket layout.
    w.warmup = 2;
  } else {
    throw std::invalid_argument("unknown workload '" + w.name + "'");
  }
  if (opt.tiny) w.warmup = 1;
  return w;
}

// --- counter snapshots ------------------------------------------------------

/// State sampled at every kernel boundary by the traced run's kernel hook:
/// residency peaks, fragmentation just before the end-of-iteration
/// defragment, and the heap allocators' event counters.  Defragment
/// rebuilds a heap's allocator, restarting its counters, so they are
/// accumulated here across rebuilds; frees inside the end-of-iteration GC,
/// after the last kernel and before the rebuild, are not seen.
struct KernelSampler {
  std::size_t peak_resident = 0;
  std::size_t peak_objects = 0;
  std::array<double, 2> frag = {};  ///< fast, slow at the latest kernel
  std::uint64_t splits = 0;
  std::uint64_t coalesces = 0;
  std::uint64_t exact = 0;
  std::uint64_t spill = 0;

  void sample(const ca::dm::DataManager& dm) {
    peak_resident = std::max(peak_resident, dm.resident_bytes());
    peak_objects = std::max(peak_objects, dm.live_objects());
    const std::array<ca::sim::DeviceId, 2> devs = {ca::sim::kFast, ca::sim::kSlow};
    for (std::size_t i = 0; i < devs.size(); ++i) {
      const auto st = dm.device_stats(devs[i]);
      frag[i] = st.fragmentation;
      const auto& c = st.alloc;
      Seen& seen = seen_[i];
      const void* alloc = &dm.allocator(devs[i]);
      const bool rebuilt = alloc != seen.alloc || c.splits < seen.c.splits ||
                           c.coalesces < seen.c.coalesces ||
                           c.bin_exact_hits < seen.c.bin_exact_hits ||
                           c.bin_spill_allocs < seen.c.bin_spill_allocs;
      const ca::telemetry::AllocatorCounters base = rebuilt ? ca::telemetry::AllocatorCounters{} : seen.c;
      splits += c.splits - base.splits;
      coalesces += c.coalesces - base.coalesces;
      exact += c.bin_exact_hits - base.bin_exact_hits;
      spill += c.bin_spill_allocs - base.bin_spill_allocs;
      seen = {alloc, c};
    }
  }

  void reset_peaks(const ca::dm::DataManager& dm) {
    peak_resident = dm.resident_bytes();
    peak_objects = dm.live_objects();
  }

 private:
  struct Seen {
    const void* alloc = nullptr;
    ca::telemetry::AllocatorCounters c;
  };
  std::array<Seen, 2> seen_ = {};
};

/// Every public counter the per-layer metrics are deltas of.
struct Snapshot {
  double clock = 0.0;
  double compute_s = 0.0;
  double movement_s = 0.0;
  double gc_s = 0.0;
  ca::telemetry::DeviceTraffic dram;
  ca::telemetry::DeviceTraffic nvram;
  ca::twolm::CacheStats cache;
  std::uint64_t kernels = 0;
  std::uint64_t archives = 0;
  std::uint64_t retires = 0;
  ca::core::GcStats gc;
  ca::policy::LruPolicy::OpStats policy;
  ca::dm::DataManager::AsyncStats async;
  ca::mem::CopyEngine::Stats copy;
  std::uint64_t alloc_splits = 0;
  std::uint64_t alloc_coalesces = 0;
  std::uint64_t alloc_exact = 0;
  std::uint64_t alloc_spill = 0;
  std::size_t peak_resident = 0;  ///< since the window started
  std::size_t peak_objects = 0;
  std::uint64_t quota_denials = 0;
  std::uint64_t evictions_refused = 0;
  ca::telemetry::CommCounters comm;
};

/// The public handles of one set-up system.
struct View {
  ca::dm::DataManager* dm = nullptr;
  ca::sim::Clock* clock = nullptr;
  ca::telemetry::TrafficCounters* counters = nullptr;
  ca::twolm::DirectMappedCache* cache = nullptr;
  std::vector<ca::core::Runtime*> runtimes;
  std::vector<ca::dnn::Engine*> engines;
  const ca::telemetry::CommCounters* comm = nullptr;
  KernelSampler* sampler = nullptr;  ///< traced run only
};

void add_policy(ca::policy::LruPolicy::OpStats& sum,
                const ca::policy::LruPolicy::OpStats& s) {
  sum.evictions += s.evictions;
  sum.eviction_bytes += s.eviction_bytes;
  sum.elided_writebacks += s.elided_writebacks;
  sum.prefetches += s.prefetches;
  sum.forced_reclaims += s.forced_reclaims;
  sum.async_writebacks += s.async_writebacks;
  sum.prefetch_ahead += s.prefetch_ahead;
}

Snapshot take(const View& v) {
  using ca::sim::TimeCategory;
  Snapshot s;
  s.clock = v.clock->now();
  s.compute_s = v.clock->spent(TimeCategory::kCompute);
  s.movement_s = v.clock->spent(TimeCategory::kMovement);
  s.gc_s = v.clock->spent(TimeCategory::kGc);
  s.dram = v.counters->device(ca::sim::kFast);
  s.nvram = v.counters->device(ca::sim::kSlow);
  if (v.cache != nullptr) s.cache = v.cache->stats();
  for (const auto* e : v.engines) {
    s.kernels += e->stats().kernels;
    s.archives += e->stats().archives_issued;
    s.retires += e->stats().retires_issued;
  }
  for (auto* rt : v.runtimes) {
    const auto& gc = rt->gc_stats();
    s.gc.collections += gc.collections;
    s.gc.objects_collected += gc.objects_collected;
    s.gc.pressure_triggers += gc.pressure_triggers;
    if (const auto* lru = dynamic_cast<const ca::policy::LruPolicy*>(&rt->policy())) {
      add_policy(s.policy, lru->op_stats());
    }
  }
  s.async = v.dm->async_stats();
  s.copy = v.dm->engine().stats();
  if (v.sampler != nullptr) {
    s.alloc_splits = v.sampler->splits;
    s.alloc_coalesces = v.sampler->coalesces;
    s.alloc_exact = v.sampler->exact;
    s.alloc_spill = v.sampler->spill;
    s.peak_resident = v.sampler->peak_resident;
    s.peak_objects = v.sampler->peak_objects;
  }
  for (std::uint32_t t = 0; t < v.dm->tenant_count(); ++t) {
    const auto ts = v.dm->tenant_stats(ca::dm::TenantId{t});
    s.quota_denials += ts.quota_denials;
    s.evictions_refused += ts.evictions_refused;
  }
  if (v.comm != nullptr) s.comm = *v.comm;
  return s;
}

// --- one set-up system ---------------------------------------------------------

/// One measured iteration: both clocks plus the simulated traffic and tag
/// statistics the correctness checks compare.
struct Sample {
  double host_s = 0.0;
  double cpu_s = 0.0;
  double sim_s = 0.0;
  ca::telemetry::DeviceTraffic dram;
  ca::telemetry::DeviceTraffic nvram;
  ca::twolm::CacheStats cache;
};

bool same_sim(const Sample& a, const Sample& b) {
  const auto eq = [](const ca::telemetry::DeviceTraffic& x,
                     const ca::telemetry::DeviceTraffic& y) {
    return x.bytes_read == y.bytes_read && x.bytes_written == y.bytes_written &&
           x.bytes_written_nt == y.bytes_written_nt;
  };
  return a.sim_s == b.sim_s && eq(a.dram, b.dram) && eq(a.nvram, b.nvram) &&
         a.cache.accesses == b.cache.accesses && a.cache.hits == b.cache.hits;
}

/// A set-up workload.  Untraced iterations go through the library's own
/// loop (Trainer::run_iteration / dp::Trainer::step); traced ones make the
/// same public calls in the same order with a span around each.
class System {
 public:
  virtual ~System() = default;
  virtual Sample iterate(Tracer* tracer, long iteration) = 0;
  virtual View view() = 0;

  /// Fed by the kernel hook the traced run installs.
  KernelSampler sampler;
  bool sampling = false;
};

/// Host wall and CPU time around `fn`, wrapped in an `iteration` span.
template <typename Fn>
void timed(Sample& s, Tracer* tracer, long iteration, Fn&& fn) {
  const double c0 = cpu_now();
  const double t0 = wall_now();
  {
    SpanScope it(tracer, "iteration", iteration);
    fn();
  }
  s.host_s = wall_now() - t0;
  s.cpu_s = cpu_now() - c0;
}

class SingleSystem final : public System {
 public:
  SingleSystem(const Workload& w, Tracer* tracer) : trainer_seed_(w.trainer_seed) {
    {
      SpanScope s(tracer, "setup.harness");
      harness_ = std::make_unique<ca::dnn::Harness>(w.harness);
    }
    {
      SpanScope s(tracer, "setup.model");
      model_ = ca::dnn::build_model(harness_->engine(), w.model);
      model_->init(harness_->engine(), w.init_seed);
    }
    if (tracer == nullptr) {
      ca::dnn::TrainerOptions opts;
      opts.seed = w.trainer_seed;
      trainer_ = std::make_unique<ca::dnn::Trainer>(*harness_, *model_, opts);
    } else {
      // Trainer's own kernel hook samples resident bytes; the traced
      // replica samples that and more.
      auto& dm = harness_->runtime().manager();
      harness_->engine().set_kernel_hook([this, &dm] { sampler.sample(dm); });
      sampling = true;
    }
  }

  ~SingleSystem() override {
    if (trainer_ == nullptr) harness_->engine().set_kernel_hook(nullptr);
  }

  Sample iterate(Tracer* tracer, long iteration) override {
    Sample s;
    if (trainer_ != nullptr) {
      ca::dnn::IterationMetrics m;
      timed(s, nullptr, iteration, [&] { m = trainer_->run_iteration(); });
      s.sim_s = m.seconds;
      s.dram = m.dram;
      s.nvram = m.nvram;
      s.cache = m.cache;
      return s;
    }
    // The same deltas Trainer::run_iteration reports.
    auto& rt = harness_->runtime();
    const double t0 = rt.clock().now();
    const auto dram0 = rt.counters().device(ca::sim::kFast);
    const auto nvram0 = rt.counters().device(ca::sim::kSlow);
    const auto* cache = harness_->cache();
    const ca::twolm::CacheStats c0 = cache != nullptr ? cache->stats() : ca::twolm::CacheStats{};
    timed(s, tracer, iteration, [&] { replica_iteration(tracer, iteration); });
    s.sim_s = rt.clock().now() - t0;
    s.dram = rt.counters().delta(ca::sim::kFast, dram0);
    s.nvram = rt.counters().delta(ca::sim::kSlow, nvram0);
    if (cache != nullptr) {
      const auto& c1 = cache->stats();
      s.cache.accesses = c1.accesses - c0.accesses;
      s.cache.hits = c1.hits - c0.hits;
      s.cache.clean_misses = c1.clean_misses - c0.clean_misses;
      s.cache.dirty_misses = c1.dirty_misses - c0.dirty_misses;
    }
    return s;
  }

  View view() override {
    auto& rt = harness_->runtime();
    View v;
    v.dm = &rt.manager();
    v.clock = &rt.clock();
    v.counters = &rt.counters();
    v.cache = harness_->cache();
    v.runtimes = {&rt};
    v.engines = {&harness_->engine()};
    if (sampling) v.sampler = &sampler;
    return v;
  }

 private:
  /// Trainer::run_iteration's public calls, in its order, one span each.
  /// The tensor handles are declared in the same order so they drop (and
  /// join the GC's pending list) in the same order.
  void replica_iteration(Tracer* tracer, long iteration) {
    auto& engine = harness_->engine();
    const std::uint64_t seed = trainer_seed_ + 31 * iter_;
    {
      ca::dnn::Tensor input;
      ca::dnn::Tensor labels;
      ca::dnn::Tensor logits;
      {
        SpanScope s(tracer, "dnn.forward", iteration);
        input = engine.tensor(model_->input_shape(), "input");
        engine.fill_normal(input, 1.0f, seed);
        labels = engine.tensor({model_->spec().batch}, "labels");
        engine.fill_labels(labels, model_->spec().classes, seed ^ 0x5555);
        logits = model_->forward(engine, input);
      }
      {
        SpanScope s(tracer, "dnn.loss", iteration);
        (void)engine.softmax_ce_loss(logits, labels);
      }
      {
        SpanScope s(tracer, "dnn.backward", iteration);
        engine.backward();
      }
      {
        SpanScope s(tracer, "dnn.sgd_step", iteration);
        engine.sgd_step(ca::dnn::TrainerOptions{}.lr);
      }
    }
    {
      SpanScope s(tracer, "core.end_iteration", iteration);
      engine.end_iteration();
    }
    {
      SpanScope s(tracer, "dm.drain_transfers", iteration);
      harness_->runtime().manager().drain_transfers();
    }
    ++iter_;
  }

  std::uint64_t trainer_seed_;
  std::unique_ptr<ca::dnn::Harness> harness_;
  std::unique_ptr<ca::dnn::Model> model_;
  std::unique_ptr<ca::dnn::Trainer> trainer_;  ///< untraced runs only
  std::uint64_t iter_ = 0;
};

class DpSystem final : public System {
 public:
  DpSystem(const Workload& w, Tracer* tracer) {
    {
      // dp::Trainer builds the shared heap and all K replicas at once.
      SpanScope s(tracer, "setup.harness");
      trainer_ = std::make_unique<ca::dp::Trainer>(w.dp);
    }
    if (tracer != nullptr) {
      auto& dm = trainer_->heap().manager;
      for (std::size_t k = 0; k < trainer_->worker_count(); ++k) {
        trainer_->worker_engine(k).set_kernel_hook([this, &dm] { sampler.sample(dm); });
      }
      sampling = true;
    }
  }

  ~DpSystem() override {
    for (std::size_t k = 0; k < trainer_->worker_count(); ++k) {
      trainer_->worker_engine(k).set_kernel_hook(nullptr);
    }
  }

  Sample iterate(Tracer* tracer, long iteration) override {
    Sample s;
    auto& counters = trainer_->heap().counters;
    const auto dram0 = counters.device(ca::sim::kFast);
    const auto nvram0 = counters.device(ca::sim::kSlow);
    ca::dp::StepMetrics m;
    timed(s, tracer, iteration, [&] {
      SpanScope step(tracer, "dp.step", iteration);
      m = trainer_->step();
    });
    s.sim_s = m.step_seconds;
    s.dram = counters.delta(ca::sim::kFast, dram0);
    s.nvram = counters.delta(ca::sim::kSlow, nvram0);
    return s;
  }

  View view() override {
    auto& heap = trainer_->heap();
    View v;
    v.dm = &heap.manager;
    v.clock = &heap.clock;
    v.counters = &heap.counters;
    for (std::size_t k = 0; k < trainer_->worker_count(); ++k) {
      v.runtimes.push_back(&trainer_->worker_runtime(k));
      v.engines.push_back(&trainer_->worker_engine(k));
    }
    v.comm = &trainer_->comm_counters();
    if (sampling) v.sampler = &sampler;
    return v;
  }

 private:
  std::unique_ptr<ca::dp::Trainer> trainer_;
};

std::unique_ptr<System> set_up(const Workload& w, Tracer* tracer) {
  if (w.kind == Kind::kDataParallel) return std::make_unique<DpSystem>(w, tracer);
  return std::make_unique<SingleSystem>(w, tracer);
}

// --- the measured loop ------------------------------------------------------

struct Phase {
  std::vector<double> warmup_sim_s;  ///< simulated seconds of each warm-up
  std::vector<Sample> samples;       ///< every measured iteration
  Snapshot before;  ///< counters after warm-up
  Snapshot window;  ///< counters after the first kSimWindow measured ones
  std::vector<double> frag_dram;   ///< before the end-of-iteration defragment
  std::vector<double> frag_nvram;

  /// The first kSimWindow measured iterations: the simulated metrics'
  /// sample, identical on every host.
  [[nodiscard]] std::vector<Sample> sim_window() const {
    return {samples.begin(),
            samples.begin() + static_cast<long>(std::min(kSimWindow, samples.size()))};
  }
};

/// Warm up, then run measured iterations until `budget_s` host seconds have
/// passed and at least kSimWindow ran (or exactly `fixed_iters` when
/// non-zero).  Correctness checks run after each iteration, outside its
/// timed region.  An iteration that throws (OutOfMemoryError, ...) is
/// counted as failed and ends the phase: the engine's tape is not reusable
/// after a mid-iteration throw.
Phase run_phase(System& sys, int warmup, Tracer* tracer,
                double budget_s, std::size_t fixed_iters, Result& res) {
  Phase p;
  const auto attempt = [&](Tracer* t, long it, Sample& out) {
    ++res.attempted;
    try {
      out = sys.iterate(t, it);
      return true;
    } catch (const std::exception& e) {
      ++res.failed;
      res.check(false, std::string("iteration failed: ") + e.what());
      return false;
    }
  };
  for (int i = 0; i < warmup; ++i) {
    Sample s;
    if (!attempt(nullptr, -1, s)) return p;
    p.warmup_sim_s.push_back(s.sim_s);
  }
  const View v = sys.view();
  if (v.sampler != nullptr) v.sampler->reset_peaks(*v.dm);
  p.before = take(v);
  p.window = p.before;
  const double start = wall_now();
  for (std::size_t n = 0;; ++n) {
    const bool more = fixed_iters != 0
                          ? n < fixed_iters
                          : (n < kSimWindow || wall_now() - start < budget_s);
    if (!more) break;
    Sample s;
    if (!attempt(tracer, static_cast<long>(n), s)) break;
    bool ok = true;
    const auto report = ca::audit::verify(*v.dm);
    if (!report.ok()) {
      ok = false;
      res.check(false, "audit after iteration " + std::to_string(n) + ": " +
                           report.to_string());
    }
    const auto& c = s.cache;
    if (c.accesses != c.hits + c.clean_misses + c.dirty_misses) {
      ok = false;
      res.check(false, "twolm.block_accesses != hits + clean + dirty misses");
    }
    if (!ok) ++res.failed;
    p.samples.push_back(s);
    if (n < kSimWindow) {
      if (v.sampler != nullptr) {
        p.frag_dram.push_back(v.sampler->frag[0]);
        p.frag_nvram.push_back(v.sampler->frag[1]);
      }
      p.window = take(v);
    }
  }
  return p;
}

std::string join(const std::vector<double>& v) {
  std::string out;
  char buf[32];
  for (const double x : v) {
    std::snprintf(buf, sizeof buf, "%s%.6f", out.empty() ? "" : " ", x);
    out += buf;
  }
  return out;
}

std::vector<double> field(const std::vector<Sample>& v, double Sample::*f) {
  std::vector<double> out;
  out.reserve(v.size());
  for (const auto& s : v) out.push_back(s.*f);
  return out;
}

// --- the two runs -----------------------------------------------------------

void print_workload(const Workload& w, const Options& opt) {
  if (w.kind == Kind::kDataParallel) {
    std::printf("workload %s: dp::Trainer K=%zu, %s base_channels %zu batch %zu, "
                "bucket %zu KiB, overlap %s, shared DRAM %.4g MiB, NVRAM %.4g MiB, "
                "seed %llu\n",
                w.name.c_str(), w.dp.workers, w.dp.model.name.c_str(),
                w.dp.model.base_channels, w.dp.model.batch,
                w.dp.bucket_bytes / 1024, w.dp.overlap ? "on" : "off",
                static_cast<double>(w.dp.dram_bytes) / kMiB,
                static_cast<double>(w.dp.nvram_bytes) / kMiB,
                static_cast<unsigned long long>(opt.seed));
  } else {
    std::printf("workload %s: %s batch %zu, mode %s, DRAM %.4g MiB, NVRAM %.4g MiB, "
                "async %s, seed %llu\n",
                w.name.c_str(), w.model.name.c_str(), w.model.batch,
                ca::dnn::to_string(w.harness.mode),
                static_cast<double>(w.harness.dram_bytes) / kMiB,
                static_cast<double>(w.harness.nvram_bytes) / kMiB,
                w.harness.async_movement ? "on" : "off",
                static_cast<unsigned long long>(opt.seed));
  }
}

/// Set up `w`, or count the failure (an undersized heap throws here) and
/// return nullptr.
std::unique_ptr<System> try_set_up(const Workload& w, Tracer* tracer, Result& res) {
  try {
    return set_up(w, tracer);
  } catch (const std::exception& e) {
    ++res.attempted;
    ++res.failed;
    res.check(false, std::string("set-up failed: ") + e.what());
    return nullptr;
  }
}

Result run_end_to_end(const Workload& w, const Options& opt) {
  Result res;
  std::vector<double> setup_s;
  std::unique_ptr<System> sys;
  for (int r = 0; r < kSetups; ++r) {
    sys.reset();
    const double t0 = wall_now();
    sys = try_set_up(w, nullptr, res);
    if (sys == nullptr) break;
    setup_s.push_back(wall_now() - t0);
  }
  Phase p;
  if (sys != nullptr) p = run_phase(*sys, w.warmup, nullptr, opt.seconds, 0, res);
  sys.reset();

  const Tail tail = tail_percentile(field(p.samples, &Sample::host_s));
  const std::vector<double> window = field(p.sim_window(), &Sample::sim_s);
  const double sim = median(window);
  res.metrics["setup_s"] = median(setup_s);
  res.metrics["sim_iter_s"] = sim;
  res.metrics["host_iter_s_p50"] = median(field(p.samples, &Sample::host_s));
  res.metrics["host_iter_s_tail"] = tail.value;
  res.metrics["host_cpu_iter_s"] = median(field(p.samples, &Sample::cpu_s));
  res.metrics["peak_rss_mib"] = peak_rss_mib();

  char buf[512];
  std::snprintf(buf, sizeof buf,
                "host_iter_s_tail is p%.1f of %zu measured iterations", tail.percentile,
                tail.samples);
  res.notes.emplace_back(buf);
  std::snprintf(buf, sizeof buf, "failed_iter_frac %.6g (%llu of %llu attempted)",
                res.attempted == 0 ? 0.0
                                   : static_cast<double>(res.failed) /
                                         static_cast<double>(res.attempted),
                static_cast<unsigned long long>(res.failed),
                static_cast<unsigned long long>(res.attempted));
  res.notes.emplace_back(buf);
  std::snprintf(buf, sizeof buf, "sim_iter_s window: %s",
                join(window).c_str());
  res.notes.emplace_back(buf);
  if (w.fig2_cell_s > 0.0 && opt.seed == 0 && !opt.tiny && !p.samples.empty()) {
    // Fig. 2 runs three iterations and averages the last two; here those
    // are warm-up iterations 1 and 2.
    std::vector<double> all = p.warmup_sim_s;
    for (const auto& smp : p.samples) all.push_back(smp.sim_s);
    const double fig2 = all.size() >= 3 ? 0.5 * (all[1] + all[2]) : 0.0;
    std::snprintf(buf, sizeof buf,
                  "reference: sim_iter_s %.4f s (steady state) vs EXPERIMENTS.md "
                  "Fig. 2 cell %.1f s: difference %+.4f s (%+.3f%%); Fig. 2's own "
                  "protocol (mean of iterations 1-2) gives %.4f s here",
                  sim, w.fig2_cell_s, sim - w.fig2_cell_s,
                  100.0 * (sim - w.fig2_cell_s) / w.fig2_cell_s, fig2);
    res.notes.emplace_back(buf);
  }
  return res;
}

Result run_traced(const Workload& w, const Options& opt) {
  Result res;
  Phase plain;
  if (auto sys = try_set_up(w, nullptr, res)) {
    plain = run_phase(*sys, w.warmup, nullptr, opt.seconds / 2.0, 0, res);
  }

  Tracer tracer;
  Phase traced;
  if (auto sys = try_set_up(w, &tracer, res)) {
    traced = run_phase(*sys, w.warmup, &tracer, 0.0,
                       std::max<std::size_t>(1, plain.samples.size()), res);
  }

  // The traced run must reproduce the untraced run's simulated seconds and
  // traffic exactly, iteration by iteration.
  const std::size_t n = std::min(plain.samples.size(), traced.samples.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!same_sim(plain.samples[i], traced.samples[i])) {
      ++res.failed;
      res.check(false, "traced iteration " + std::to_string(i) +
                           " differs from the untraced run in simulated time "
                           "or traffic");
    }
  }
  res.check(plain.samples.size() == traced.samples.size(),
            "traced and untraced runs measured different iteration counts");

  // The twolm probe is shaped like twolm_resnet whatever the workload.
  Options resnet_opt = opt;
  resnet_opt.workload = "twolm_resnet";
  const Workload resnet = make_workload(resnet_opt);
  const TwoLmProbe twolm = probe_twolm(resnet.model, resnet.harness.dram_bytes,
                                       resnet.harness.nvram_bytes, opt.seed, tracer);
  const double bracket_us = probe_kernel_bracket_us(traced.window.peak_objects, opt.seed, tracer);

  const Snapshot& a = traced.before;
  const Snapshot& b = traced.window;
  // Counts are per iteration over the simulated window; span times are per
  // iteration over every traced iteration.
  const auto per = [&](double x) {
    return x / std::max<double>(1.0, static_cast<double>(traced.sim_window().size()));
  };
  const auto per_host = [&](double x) {
    return x / std::max<double>(1.0, static_cast<double>(traced.samples.size()));
  };
  const auto du = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x);
  };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  auto& m = res.metrics;

  // sim: modeled traffic per device and DRAM bus utilization.
  const double sim_s = b.clock - a.clock;
  m["sim.dram_read_mib"] = per(du(a.dram.bytes_read, b.dram.bytes_read) / kMiB);
  m["sim.dram_write_mib"] = per(du(a.dram.bytes_written, b.dram.bytes_written) / kMiB);
  m["sim.nvram_read_mib"] = per(du(a.nvram.bytes_read, b.nvram.bytes_read) / kMiB);
  m["sim.nvram_write_mib"] =
      per(du(a.nvram.bytes_written, b.nvram.bytes_written) / kMiB);
  {
    // Trainer's definition: achieved DRAM traffic over peak DRAM bandwidth
    // times elapsed simulated time.
    const auto platform = ca::sim::Platform::cascade_lake_scaled(
        w.harness.dram_bytes, w.harness.nvram_bytes);
    const double peak = platform.spec(ca::sim::kFast).read_bw.peak();
    const double dram_bytes =
        du(a.dram.bytes_read, b.dram.bytes_read) +
        du(a.dram.bytes_written, b.dram.bytes_written);
    m["sim.dram_bus_util"] = std::min(1.0, ratio(dram_bytes, peak * sim_s));
  }

  // twolm: tag statistics (zero outside 2LM modes) and host-cost probes.
  const double acc = du(a.cache.accesses, b.cache.accesses);
  m["twolm.block_accesses"] = per(acc);
  m["twolm.hit_rate"] = ratio(du(a.cache.hits, b.cache.hits), acc);
  m["twolm.clean_miss_rate"] = ratio(du(a.cache.clean_misses, b.cache.clean_misses), acc);
  m["twolm.dirty_miss_rate"] = ratio(du(a.cache.dirty_misses, b.cache.dirty_misses), acc);
  m["twolm.host_ns_per_block"] = twolm.ns_per_block;
  m["twolm.construct_s"] = twolm.construct_s;

  // dnn: engine work and the spans around the training-step calls.
  m["dnn.kernels"] = per(du(a.kernels, b.kernels));
  m["dnn.archives"] = per(du(a.archives, b.archives));
  m["dnn.retires"] = per(du(a.retires, b.retires));
  m["dnn.compute_sim_s"] = per(b.compute_s - a.compute_s);
  m["dnn.forward_host_s"] = per_host(tracer.total("dnn.forward"));
  m["dnn.loss_host_s"] = per_host(tracer.total("dnn.loss"));
  m["dnn.backward_host_s"] = per_host(tracer.total("dnn.backward"));
  m["dnn.sgd_host_s"] = per_host(tracer.total("dnn.sgd_step"));
  m["dnn.model_build_s"] = tracer.total("setup.model");
  m["dp.step_host_s"] = per_host(tracer.total("dp.step"));

  // core: the emulated GC and the end-of-iteration GC + defragment call.
  m["core.gc_sim_s"] = per(b.gc_s - a.gc_s);
  m["core.gc_collections"] = per(du(a.gc.collections, b.gc.collections));
  m["core.gc_objects"] = per(du(a.gc.objects_collected, b.gc.objects_collected));
  m["core.gc_pressure_triggers"] =
      per(du(a.gc.pressure_triggers, b.gc.pressure_triggers));
  m["core.end_iteration_host_s"] = per_host(tracer.total("core.end_iteration"));

  // policy: LruPolicy::op_stats (zero under PinnedDevicePolicy).
  const double evictions = du(a.policy.evictions, b.policy.evictions);
  m["policy.evictions"] = per(evictions);
  m["policy.eviction_mib"] =
      per(du(a.policy.eviction_bytes, b.policy.eviction_bytes) / kMiB);
  m["policy.elided_writeback_ratio"] =
      ratio(du(a.policy.elided_writebacks, b.policy.elided_writebacks), evictions);
  m["policy.prefetches"] = per(du(a.policy.prefetches, b.policy.prefetches));
  m["policy.forced_reclaims"] =
      per(du(a.policy.forced_reclaims, b.policy.forced_reclaims));
  m["policy.kernel_bracket_us"] = bracket_us;

  // dm: synchronous movement, residency, async mover, tenant accounting.
  m["dm.movement_sim_s"] = per(b.movement_s - a.movement_s);
  m["dm.peak_resident_mib"] = static_cast<double>(b.peak_resident) / kMiB;
  m["dm.peak_live_objects"] = static_cast<double>(b.peak_objects);
  m["dm.fragmentation.dram"] = median(traced.frag_dram);
  m["dm.fragmentation.nvram"] = median(traced.frag_nvram);
  m["dm.drain_host_s"] = per_host(tracer.total("dm.drain_transfers"));
  m["dm.quota_denials"] = per(du(a.quota_denials, b.quota_denials));
  m["dm.evictions_refused"] = per(du(a.evictions_refused, b.evictions_refused));

  // mem: copy engine and the binned heap allocators.
  m["mem.copy_mib"] = per(du(a.copy.bytes, b.copy.bytes) / kMiB);
  m["mem.fill_mib"] = per(du(a.copy.fill_bytes, b.copy.fill_bytes) / kMiB);
  m["mem.nt_mib"] = per(du(a.copy.nt_bytes, b.copy.nt_bytes) / kMiB);
  const double exact = du(a.alloc_exact, b.alloc_exact);
  m["mem.alloc_bin_hit_rate"] = ratio(exact, exact + du(a.alloc_spill, b.alloc_spill));
  m["mem.alloc_splits"] = per(du(a.alloc_splits, b.alloc_splits));
  m["mem.alloc_coalesces"] = per(du(a.alloc_coalesces, b.alloc_coalesces));
  m["mem.harness_setup_s"] = tracer.total("setup.harness");

  // Async movement and look-ahead prefetch: zero unless the workload turns
  // them on, so only such workloads report them (manifest.json's
  // ungated_per_layer).
  if (w.kind == Kind::kSingle && w.harness.async_movement) {
    m["policy.prefetch_ahead"] =
        per(du(a.policy.prefetch_ahead, b.policy.prefetch_ahead));
    m["policy.async_writebacks"] =
        per(du(a.policy.async_writebacks, b.policy.async_writebacks));
    m["dm.async_transfers"] = per(du(a.async.scheduled, b.async.scheduled));
    m["dm.async_stall_sim_s"] = per(b.async.stall_seconds - a.async.stall_seconds);
    m["dm.async_overlap_sim_s"] =
        per(b.async.overlap_seconds - a.async.overlap_seconds);
    m["dm.inflight_peak"] = static_cast<double>(b.async.inflight_peak);
    m["mem.async_copy_mib"] = per(du(a.copy.async_bytes, b.copy.async_bytes) / kMiB);
  }

  // comm: the data-parallel allreduce (zero outside dp).
  m["comm.busy_sim_s"] = per(b.comm.comm_seconds - a.comm.comm_seconds);
  m["comm.exposed_sim_s"] = per(b.comm.exposed_seconds - a.comm.exposed_seconds);
  m["comm.overlapped_sim_s"] =
      per(b.comm.overlapped_seconds - a.comm.overlapped_seconds);
  m["comm.wire_mib"] = per(du(a.comm.bytes_on_wire, b.comm.bytes_on_wire) / kMiB);
  m["comm.buckets"] = per(du(a.comm.reductions, b.comm.reductions));
  m["comm.ring_picks"] = per(du(a.comm.ring_picks, b.comm.ring_picks));
  m["comm.tree_picks"] = per(du(a.comm.tree_picks, b.comm.tree_picks));

  // The trace itself: overhead against the untraced phase and the share
  // of iteration host time no child span covers.
  const double plain_p50 = median(field(plain.samples, &Sample::host_s));
  const double traced_p50 = median(field(traced.samples, &Sample::host_s));
  m["trace.overhead_ratio"] = ratio(traced_p50, plain_p50);
  m["trace.unattributed_frac"] = tracer.unattributed("iteration");

  char buf[160];
  std::snprintf(buf, sizeof buf,
                "traced run: %zu iterations, %zu spans; untraced host p50 %.6f s, "
                "traced %.6f s",
                traced.samples.size(), tracer.spans().size(), plain_p50, traced_p50);
  res.notes.emplace_back(buf);
  if (!opt.trace_out.empty()) {
    if (tracer.write_chrome_trace(opt.trace_out)) {
      res.notes.push_back("spans written to " + opt.trace_out);
    } else {
      res.notes.push_back("could not write spans to " + opt.trace_out);
    }
  }
  return res;
}

}  // namespace

Result run_workload(const Options& opt) {
  const Workload w = make_workload(opt);
  print_workload(w, opt);
  return opt.trace ? run_traced(w, opt) : run_end_to_end(w, opt);
}

}  // namespace perfbench
