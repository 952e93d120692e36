#include "dnn/dp_trainer.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "policy/lru_policy.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace ca::dp {

Trainer::Trainer(TrainerConfig config)
    : config_(std::move(config)),
      heap_(std::make_shared<core::SharedHeap>(
          sim::Platform::cascade_lake_scaled(config_.dram_bytes,
                                             config_.nvram_bytes))),
      comm_(comm::CommConfig{config_.workers, config_.link,
                             config_.force_algorithm}) {
  CA_CHECK(config_.workers >= 1, "dp::Trainer needs at least one worker");
  CA_CHECK(config_.bucket_bytes > 0, "bucket capacity must be positive");

  policy::LruPolicyConfig pcfg;
  pcfg.min_migratable = config_.min_migratable;
  const auto factory = [pcfg](dm::DataManager& dm) {
    return std::make_unique<policy::LruPolicy>(dm, pcfg);
  };

  for (std::size_t w = 0; w < config_.workers; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->tenant =
        heap_->manager.register_tenant("dp:worker" + std::to_string(w));
    core::RuntimeOptions opts;
    opts.tenant = worker->tenant;
    worker->rt = std::make_unique<core::Runtime>(heap_, factory, opts);
    worker->ctx = std::make_unique<dnn::CaExecContext>(
        *worker->rt, config_.kernel_threads);
    dnn::EngineConfig ec;
    ec.backend = config_.backend;
    ec.compute_efficiency = config_.model.compute_efficiency;
    ec.conv_read_passes = config_.model.conv_read_passes;
    ec.kernel_threads = config_.kernel_threads;
    worker->engine =
        std::make_unique<dnn::Engine>(*worker->rt, *worker->ctx, ec);
    worker->model = dnn::build_model(*worker->engine, config_.model);
    // Every replica starts from the SAME parameters (the data-parallel
    // contract); only the minibatches differ per worker.
    worker->model->init(*worker->engine, config_.seed);
    workers_.push_back(std::move(worker));
  }
}

Trainer::~Trainer() {
  comm_.drain();
  for (auto& w : workers_) w->engine->set_grad_ready_hook(nullptr);
}

void Trainer::build_layout(const std::vector<GradEvent>& events) {
  layout_.resize(events.size());
  bucket_sizes_.clear();
  std::size_t cur_bytes = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::size_t bytes = events[i].grad.bytes();
    if (cur_bytes > 0 && cur_bytes + bytes > config_.bucket_bytes) {
      bucket_sizes_.push_back(cur_bytes);
      cur_bytes = 0;
    }
    layout_[i] = {bucket_sizes_.size(), cur_bytes, bytes};
    cur_bytes += bytes;
  }
  if (cur_bytes > 0 || bucket_sizes_.empty()) {
    bucket_sizes_.push_back(cur_bytes);
  }
  layout_built_ = true;
}

void Trainer::allocate_buckets(Worker& w) {
  w.buckets.clear();
  w.buckets.reserve(bucket_sizes_.size());
  for (std::size_t b = 0; b < bucket_sizes_.size(); ++b) {
    dm::Object& obj = w.rt->new_object(
        bucket_sizes_[b], "grad_bucket:b" + std::to_string(b),
        dm::ObjectClass::kGradient);
    w.buckets.push_back(&obj);
  }
}

StepMetrics Trainer::step() {
  const std::uint64_t step_seed = config_.seed + 31 * iter_;
  const std::size_t n_workers = workers_.size();
  const comm::CommStats comm0 = comm_.stats();

  StepMetrics m;

  // --- forward + backward, one worker at a time (parallel in model time) --
  for (std::size_t w = 0; w < n_workers; ++w) {
    Worker& W = *workers_[w];
    auto& eng = *W.engine;
    W.events.clear();
    // Buckets are born DRAM-hot at backward start (steps >= 2, once the
    // layout is known) so gradients stream into resident fast memory.
    if (layout_built_) allocate_buckets(W);

    const double k0 = eng.stats().kernel_seconds;
    eng.set_grad_ready_hook(
        [&W, &eng, k0](const dnn::Tensor&, const dnn::Tensor& grad) {
          // Worker-virtual ready time: this worker's own kernel-seconds
          // into the step (the shared clock sums all tenants and would
          // serialize the replicas).
          W.events.push_back({grad, eng.stats().kernel_seconds - k0});
        });

    {
      const std::uint64_t wseed = step_seed + 1000003 * w;
      dnn::Tensor input = eng.tensor(W.model->input_shape(), "input");
      eng.fill_normal(input, 1.0f, wseed);
      dnn::Tensor labels = eng.tensor({config_.model.batch}, "labels");
      eng.fill_labels(labels, config_.model.classes, wseed ^ 0x5555);
      dnn::Tensor logits = W.model->forward(eng, input);
      const float loss = eng.softmax_ce_loss(logits, labels);
      if (w == 0) m.loss = loss;
      eng.backward();
    }
    eng.set_grad_ready_hook(nullptr);
    m.compute_seconds =
        std::max(m.compute_seconds, eng.stats().kernel_seconds - k0);
  }

  // --- bucket layout (worker 0's ready order; replicas are identical) ----
  if (!layout_built_) {
    build_layout(workers_[0]->events);
    for (auto& W : workers_) allocate_buckets(*W);
  }
  const std::size_t n_buckets = bucket_sizes_.size();
  const std::size_t n_events = layout_.size();
  for (const auto& W : workers_) {
    CA_CHECK(W->events.size() == n_events,
             "replica gradient-ready sequences diverged");
  }

  // --- pack gradients into buckets; collect per-bucket ready times -------
  std::vector<double> ready(n_buckets, 0.0);
  for (std::size_t w = 0; w < n_workers; ++w) {
    Worker& W = *workers_[w];
    for (std::size_t i = 0; i < n_events; ++i) {
      const Segment& seg = layout_[i];
      const GradEvent& ev = W.events[i];
      CA_CHECK(ev.grad.bytes() == seg.bytes,
               "replica gradient sizes diverged");
      dm::PinnedSpan src = W.rt->access(*ev.grad.object(), /*write=*/false);
      dm::PinnedSpan dst =
          W.rt->access(*W.buckets[seg.bucket], /*write=*/true);
      util::copy_bytes(dst.data() + seg.offset, src.data(), seg.bytes,
                       "dp::pack");
      ready[seg.bucket] = std::max(ready[seg.bucket], ev.ready);
    }
  }

  // --- launch allreduces ---------------------------------------------------
  // Absolute interconnect time: contention bookkeeping spans steps.
  const double base = step_base_;
  std::vector<comm::Reduction> reductions(n_buckets);
  double prev_done = 0.0;
  double comm_done = base;
  for (std::size_t b = 0; b < n_buckets; ++b) {
    const double earliest =
        config_.overlap
            ? base + ready[b]
            : std::max(base + m.compute_seconds, prev_done);
    std::vector<dm::PinnedSpan> parts;
    parts.reserve(n_workers);
    for (auto& W : workers_) {
      parts.push_back(W->rt->access(*W->buckets[b], /*write=*/true));
    }
    reductions[b] = comm_.allreduce_async(std::move(parts), earliest);
    prev_done = reductions[b].done_time();
    comm_done = std::max(comm_done, prev_done);
  }

  // --- drain the real reductions, scale, unpack ---------------------------
  const float inv_k = 1.0f / static_cast<float>(n_workers);
  for (auto& r : reductions) r.join();
  for (std::size_t w = 0; w < n_workers; ++w) {
    Worker& W = *workers_[w];
    for (std::size_t b = 0; b < n_buckets; ++b) {
      dm::PinnedSpan span = W.rt->access(*W.buckets[b], /*write=*/true);
      auto* f = reinterpret_cast<float*>(span.data());
      const std::size_t n = bucket_sizes_[b] / sizeof(float);
      for (std::size_t i = 0; i < n; ++i) f[i] *= inv_k;
    }
    for (std::size_t i = 0; i < n_events; ++i) {
      const Segment& seg = layout_[i];
      dm::PinnedSpan src =
          W.rt->access(*W.buckets[seg.bucket], /*write=*/false);
      dm::PinnedSpan dst =
          W.rt->access(*W.events[i].grad.object(), /*write=*/true);
      util::copy_bytes(dst.data(), src.data() + seg.offset, seg.bytes,
                       "dp::unpack");
    }
  }

  // --- apply + bucket retirement ------------------------------------------
  for (std::size_t w = 0; w < n_workers; ++w) {
    Worker& W = *workers_[w];
    auto& eng = *W.engine;
    const double k1 = eng.stats().kernel_seconds;
    eng.sgd_step(config_.lr);
    m.optimizer_seconds =
        std::max(m.optimizer_seconds, eng.stats().kernel_seconds - k1);
    W.events.clear();
    // The reduced result is applied: the buckets are dead until the next
    // backward pass.  retire (optimization M) frees the DRAM now; a
    // non-eager policy would archive instead and let LruPolicy's gradient
    // demotion move them off the fast tier.
    for (dm::Object* obj : W.buckets) W.rt->retire(*obj);
    W.buckets.clear();
    eng.end_iteration();
  }
  heap_->manager.drain_transfers();

  // --- modeled step timeline ----------------------------------------------
  const comm::CommStats comm1 = comm_.stats();
  m.buckets = n_buckets;
  m.ring_picks = comm1.ring_picks - comm0.ring_picks;
  m.tree_picks = comm1.tree_picks - comm0.tree_picks;
  m.comm_busy_seconds = comm1.busy_seconds - comm0.busy_seconds;
  m.comm_exposed_seconds =
      std::max(0.0, comm_done - (base + m.compute_seconds));
  m.comm_overlapped_seconds =
      std::max(0.0, m.comm_busy_seconds - m.comm_exposed_seconds);
  m.step_seconds =
      m.compute_seconds + m.comm_exposed_seconds + m.optimizer_seconds;
  if (m.step_seconds > 0.0) {
    m.samples_per_second =
        static_cast<double>(n_workers * config_.model.batch) /
        m.step_seconds;
  }
  // The shared clock already carries every tenant's kernel time; fold in
  // the comm seconds the step could not hide.
  heap_->clock.advance(m.comm_exposed_seconds, sim::TimeCategory::kMovement);
  step_base_ += m.step_seconds;

  comm_counters_.reductions += comm1.reductions - comm0.reductions;
  comm_counters_.bytes_on_wire += comm1.bytes_on_wire - comm0.bytes_on_wire;
  comm_counters_.ring_picks += m.ring_picks;
  comm_counters_.tree_picks += m.tree_picks;
  comm_counters_.comm_seconds += m.comm_busy_seconds;
  comm_counters_.exposed_seconds += m.comm_exposed_seconds;
  comm_counters_.overlapped_seconds += m.comm_overlapped_seconds;

  ++iter_;
  return m;
}

}  // namespace ca::dp
