// The DNN engine: kernels, reverse-mode autodiff tape, and automatic
// insertion of CachedArrays policy annotations (paper §III-E and §IV).
//
// This module plays the role Julia + Zygote + the oneDNN wrapper play in
// the paper's prototype:
//   * each kernel launch issues will_read on read arguments and will_write
//     on written arguments before executing;
//   * after each forward kernel the inputs (weights, bias, previous
//     activations) are archived -- they will not be touched again until the
//     backward pass;
//   * during the backward pass, activations and temporary gradients are
//     retired at their last use (the memory optimization M).  With
//     issue_retire off the engine relies on the runtime's GC emulation
//     instead, exactly like the paper's unannotated modes.
//
// Three execution backends share all of this machinery:
//   * kReal: kernels run the fast tier from ops_real.hpp -- blocked GEMM,
//     im2col conv, ThreadPool-parallel elementwise (tests, examples,
//     gradient checks, kernel benchmarks);
//   * kReference: kernels run the scalar seed loops -- the parity oracle
//     the kernel tests compare kReal against;
//   * kSim: kernels skip the arithmetic but still stage, pin, touch and
//     dirty their arguments, and charge modeled time
//     max(compute, memory) -- the roofline -- where the memory term comes
//     from the ExecContext (device bandwidths or the 2LM cache model).
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dnn/exec_context.hpp"
#include "dnn/kernel_ctx.hpp"
#include "dnn/tensor.hpp"
#include "telemetry/counters.hpp"

namespace ca::dnn {

enum class Backend {
  kReal,       ///< run real math, fast kernel tier (small shapes)
  kSim,        ///< cost model only (paper-scale shapes)
  kReference,  ///< run real math, scalar reference tier (parity oracle)
};

struct EngineConfig {
  Backend backend = Backend::kReal;

  /// Issue `retire` at last use on the backward pass (optimization M).
  bool issue_retire = true;

  /// Fraction of the peak flop rate (engine.cpp) the model's conv/dense
  /// kernels achieve.  Higher efficiency means compute finishes sooner and
  /// kernels become memory-bound -- the paper's "VGG kernels are more
  /// sensitive to read bandwidth" (§V-c) is a high-efficiency
  /// configuration.
  double compute_efficiency = 0.35;

  /// Passes conv/dense kernels make over their read arguments (see
  /// ArgAccess::passes); per-model calibration from ModelSpec.
  int conv_read_passes = 2;

  /// Modeled parallelism of kernel execution (memory-access side).
  std::size_t kernel_threads = 8;
};

struct EngineStats {
  std::uint64_t kernels = 0;
  double compute_seconds = 0.0;  ///< roofline compute term, summed
  double memory_seconds = 0.0;   ///< roofline memory term, summed
  double kernel_seconds = 0.0;   ///< max(compute, memory), summed
  std::uint64_t archives_issued = 0;
  std::uint64_t retires_issued = 0;

  /// Host-side kernel timing (real backends only; wall seconds, never fed
  /// into sim::Clock).  See telemetry::KernelCounters.
  telemetry::KernelCounters kernel_counters;
};

class Engine {
 public:
  Engine(core::Runtime& rt, ExecContext& ctx, EngineConfig config);

  // --- tensor creation and initialization --------------------------------

  Tensor tensor(Shape shape, std::string name = {});
  Tensor parameter(Shape shape, std::string name = {});

  /// Initialize with N(0, stddev^2) (real backend; no-op under kSim).
  void fill_normal(Tensor& t, float stddev, std::uint64_t seed);
  void fill_zero(Tensor& t);
  void fill_const(Tensor& t, float value);
  /// Integer class labels in [0, classes), stored as floats.
  void fill_labels(Tensor& t, std::size_t classes, std::uint64_t seed);

  // --- differentiable kernels (recorded on the tape) ----------------------

  Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor& b,
                std::size_t stride, std::size_t pad);
  Tensor relu(const Tensor& x);
  Tensor maxpool2(const Tensor& x);
  Tensor avgpool2(const Tensor& x);

  /// Inverted dropout with probability `p`; the mask is deterministic from
  /// `seed` (a no-op scaling under the sim backend).
  Tensor dropout(const Tensor& x, float p, std::uint64_t seed);
  Tensor global_avgpool(const Tensor& x);
  Tensor batchnorm(const Tensor& x, const Tensor& gamma, const Tensor& beta);
  Tensor dense(const Tensor& x, const Tensor& w, const Tensor& b);
  Tensor add(const Tensor& a, const Tensor& b);
  Tensor concat(const Tensor& a, const Tensor& b);

  /// Sparse embedding lookup (the SVI DLRM-style extension).  `table` is a
  /// (rows, dim) tensor -- typically a huge, NVRAM-resident parameter --
  /// and `indices` holds `batch` float-encoded row ids.  Returns the
  /// gathered (batch, dim) rows.  Only the touched rows are charged (and
  /// hinted via will_read_partial), so a sparse-aware policy leaves the
  /// table in slow memory.  The backward pass applies a fused sparse SGD
  /// update (rate `lr`) directly to the touched rows instead of
  /// materializing a table-sized gradient.
  Tensor embedding_lookup(const Tensor& table, const Tensor& indices,
                          float lr);

  /// Softmax cross-entropy against integer labels; seeds the backward
  /// pass.  Returns the mean loss (0 under kSim).
  float softmax_ce_loss(const Tensor& logits, const Tensor& labels);

  // --- training loop -------------------------------------------------------

  /// Reverse pass over the tape.  Populates parameter gradients; retires
  /// activations and temporary gradients at last use when issue_retire.
  void backward();

  /// SGD update on every parameter with a recorded gradient.
  void sgd_step(float lr);

  /// End of a training iteration: drop the tape, run the GC (the paper
  /// collects after every iteration), defragment the heaps (§IV-A).
  void end_iteration();

  // --- introspection ---------------------------------------------------------

  /// Gradient recorded for `t`, or an invalid tensor.
  [[nodiscard]] Tensor grad(const Tensor& t) const;

  [[nodiscard]] std::size_t tape_size() const noexcept {
    return tape_.size();
  }
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::vector<Tensor>& parameters() const noexcept {
    return params_;
  }
  [[nodiscard]] core::Runtime& runtime() noexcept { return *rt_; }
  [[nodiscard]] const EngineConfig& config() const noexcept {
    return config_;
  }

  /// Hook invoked after every kernel launch (used by the benches to sample
  /// heap occupancy over simulated time for Fig. 3).
  void set_kernel_hook(std::function<void()> hook) {
    kernel_hook_ = std::move(hook);
  }

  /// Hook invoked during backward() the moment one parameter's gradient is
  /// complete -- no remaining tape entry can accumulate into it.  This is
  /// the bucketed-allreduce launch point (dp::Trainer): a gradient bucket
  /// whose last parameter became ready can go on the wire while earlier
  /// layers are still running their backward kernels.
  using GradReadyHook =
      std::function<void(const Tensor& param, const Tensor& grad)>;
  void set_grad_ready_hook(GradReadyHook hook) {
    grad_ready_hook_ = std::move(hook);
  }

 private:
  struct TapeEntry {
    std::string name;
    std::vector<Tensor> inputs;
    std::vector<Tensor> outputs;
    bool is_loss = false;
    /// grad_out is aligned with outputs (entries may be invalid); returns
    /// grads aligned with inputs (invalid = no gradient).
    std::function<std::vector<Tensor>(Engine&, const std::vector<Tensor>&)>
        backward;
  };

  /// Real-math kernel body.  The KernelCtx carries the ExecContext's
  /// worker pool + scratch, the engine's kernel counters, and the
  /// fast-vs-reference tier switch; launch lambdas pass it straight to the
  /// ops_real dispatch overloads.
  using RealFn = std::function<void(const real::KernelCtx&,
                                    const std::vector<const float*>&,
                                    const std::vector<float*>&)>;

  /// One kernel argument for the generalized launch path.
  struct KernelArg {
    Tensor tensor;
    bool write = false;
    std::size_t bytes = 0;  ///< bytes actually touched; 0 = whole tensor
    int passes = 1;
    bool partial = false;  ///< sparse access: hint via will_read_partial
  };

  /// Generalized kernel launch: hints, staging protection, pinning, cost
  /// charge, optional real math.  `real_fn` receives read pointers (in
  /// read-arg order) and write pointers (in write-arg order).
  void execute_args(const std::vector<KernelArg>& args, double flops,
                    double efficiency, const RealFn& real_fn);

  /// Convenience wrapper: whole-tensor reads/writes, with `read_passes`
  /// applied to every read argument (conv/dense kernels sweep their inputs
  /// more than once).
  void execute(const std::vector<Tensor>& reads,
               const std::vector<Tensor>& writes, double flops,
               double efficiency, const RealFn& real_fn,
               int read_passes = 1);

  void record(TapeEntry entry);
  void accumulate_grad(const Tensor& target, Tensor g);
  void drop_grad(const void* target_id);
  void retire_temp(Tensor t);

  core::Runtime* rt_;
  ExecContext* ctx_;
  EngineConfig config_;
  std::vector<TapeEntry> tape_;
  std::unordered_map<const void*, Tensor> grads_;
  /// Reference counts for gradient tensors shared by several targets
  /// (pass-through gradients, e.g. residual adds), keyed by grad identity.
  std::unordered_map<const void*, int> grad_uses_;
  std::vector<Tensor> params_;
  EngineStats stats_;
  std::function<void()> kernel_hook_;
  GradReadyHook grad_ready_hook_;
  bool loss_recorded_ = false;
};

}  // namespace ca::dnn
