// dp::Trainer: data-parallel multi-worker training over one shared
// heterogeneous-memory heap, with bucketed allreduce overlapped with the
// backward pass (DESIGN.md §3.6).
//
// K workers each own a full training stack -- Runtime, ExecContext,
// Engine, Model replica -- but all attach to ONE core::SharedHeap: one
// Platform's DRAM+NVRAM, one DataManager, each worker charged to its own
// TenantId.  Workers execute sequentially on the host; their *modeled*
// timelines run in parallel.  Per-worker virtual time within a step is the
// worker's own engine kernel-seconds delta (never the shared clock, which
// sums all tenants), so modeled results are deterministic and
// host-independent.
//
// Gradient buckets: parameters are coalesced, in gradient-ready order
// (Engine::set_grad_ready_hook, fired per parameter as the reverse tape
// walk passes its last use), into fixed-capacity buckets.  Buckets are
// first-class DM objects of class ObjectClass::kGradient -- born DRAM-hot
// (LruPolicy's class-aware placement) and retired the moment the reduced
// result is applied.  A bucket's allreduce launches, in overlap mode, at the
// simulated second its last gradient became ready -- while earlier layers
// are still running backward -- and the optimizer waits only for comm the
// backward pass could not hide (the exposed remainder).  The serialized
// baseline launches every bucket after backward completes, chained.
//
// All real bucket access is PinnedSpan-sanctioned; the spans travel into
// comm::CommEngine, which holds the pins while the bucket is on the wire.
// Reduction order is canonical (workers 0..K-1, then scale by 1/K), so the
// reduced gradients are bitwise deterministic for a fixed seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "comm/comm_engine.hpp"
#include "core/runtime.hpp"
#include "core/shared_heap.hpp"
#include "dnn/engine.hpp"
#include "dnn/exec_context.hpp"
#include "dnn/models.hpp"
#include "telemetry/counters.hpp"
#include "util/align.hpp"

namespace ca::dp {

struct TrainerConfig {
  std::size_t workers = 4;
  dnn::ModelSpec model = dnn::ModelSpec::vgg416_large();
  dnn::Backend backend = dnn::Backend::kSim;

  /// Bucket capacity: gradients are packed, in ready order, into buckets
  /// of at most this many bytes (one oversized gradient gets its own).
  std::size_t bucket_bytes = 4 * util::MiB;

  /// true: launch each bucket's allreduce at its gradient-ready time,
  /// overlapping comm with the rest of backward.  false: the serialized
  /// baseline -- every bucket launches after backward completes, chained.
  bool overlap = true;

  comm::LinkModel link = comm::LinkModel::ethernet_scaled();
  std::optional<comm::Algorithm> force_algorithm;

  /// Shared-heap geometry (all K tenants share these devices).
  std::size_t dram_bytes = 512 * util::MiB;
  std::size_t nvram_bytes = 1300 * util::MiB;

  std::size_t kernel_threads = 8;
  std::size_t min_migratable = 64 * util::KiB;
  float lr = 1e-2f;
  std::uint64_t seed = 1;
};

/// One data-parallel iteration's modeled timeline.  All seconds are
/// simulated; workers run in parallel in model time.
struct StepMetrics {
  double step_seconds = 0.0;     ///< compute + exposed comm + optimizer
  double compute_seconds = 0.0;  ///< max over workers, forward + backward
  double optimizer_seconds = 0.0;
  double comm_busy_seconds = 0.0;     ///< modeled collective occupancy
  double comm_exposed_seconds = 0.0;  ///< comm the step stalled on
  double comm_overlapped_seconds = 0.0;
  std::size_t buckets = 0;
  std::uint64_t ring_picks = 0;
  std::uint64_t tree_picks = 0;
  /// Aggregate throughput: workers * batch / step_seconds.
  double samples_per_second = 0.0;
  float loss = 0.0f;  ///< worker 0's (0 under kSim)
};

class Trainer {
 public:
  explicit Trainer(TrainerConfig config);
  ~Trainer();

  Trainer(const Trainer&) = delete;
  Trainer& operator=(const Trainer&) = delete;

  /// Run one data-parallel iteration: per-worker forward+backward with
  /// bucketed allreduce, canonical reduce, per-worker SGD apply.
  StepMetrics step();

  [[nodiscard]] const TrainerConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] core::SharedHeap& heap() noexcept { return *heap_; }
  [[nodiscard]] comm::CommEngine& comm() noexcept { return comm_; }
  [[nodiscard]] std::size_t worker_count() const noexcept {
    return workers_.size();
  }
  [[nodiscard]] dnn::Engine& worker_engine(std::size_t w) {
    return *workers_.at(w)->engine;
  }
  [[nodiscard]] core::Runtime& worker_runtime(std::size_t w) {
    return *workers_.at(w)->rt;
  }

  /// Cumulative comm accounting across steps (telemetry rollup).
  [[nodiscard]] const telemetry::CommCounters& comm_counters() const noexcept {
    return comm_counters_;
  }

  /// Bucket count (valid after the first step, when the layout is built).
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return bucket_sizes_.size();
  }

 private:
  /// One replica's full stack plus its per-step scratch.
  struct GradEvent {
    dnn::Tensor grad;     ///< the finished parameter gradient
    double ready = 0.0;   ///< worker-virtual seconds into the step
  };
  struct Worker {
    dm::TenantId tenant;
    std::unique_ptr<core::Runtime> rt;
    std::unique_ptr<dnn::CaExecContext> ctx;
    std::unique_ptr<dnn::Engine> engine;
    std::unique_ptr<dnn::Model> model;
    std::vector<GradEvent> events;     ///< this step, in ready order
    std::vector<dm::Object*> buckets;  ///< this step's kGradient objects
  };
  /// Where ready-order gradient #i lives: identical for every worker
  /// because the replicas' tapes are identical.
  struct Segment {
    std::size_t bucket = 0;
    std::size_t offset = 0;
    std::size_t bytes = 0;
  };

  void build_layout(const std::vector<GradEvent>& events);
  void allocate_buckets(Worker& w);

  TrainerConfig config_;
  std::shared_ptr<core::SharedHeap> heap_;
  comm::CommEngine comm_;
  std::vector<std::unique_ptr<Worker>> workers_;

  std::vector<Segment> layout_;            ///< by ready-order index
  std::vector<std::size_t> bucket_sizes_;  ///< bytes per bucket
  bool layout_built_ = false;

  double step_base_ = 0.0;  ///< absolute modeled start of the next step
  std::uint64_t iter_ = 0;
  telemetry::CommCounters comm_counters_;
};

}  // namespace ca::dp
