// dp::Trainer tests: the bucketed data-parallel step end to end (layout,
// overlap timeline, tenant accounting, bucket lifetime) plus the
// determinism contract -- same seed, same bitwise parameters on every
// replica and every run, and identical simulated comm seconds.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "dnn/dp_trainer.hpp"
#include "dnn/models.hpp"
#include "util/align.hpp"

namespace ca::dp {
namespace {

TrainerConfig tiny_config(dnn::Backend backend) {
  TrainerConfig cfg;
  cfg.workers = 2;
  cfg.model = dnn::ModelSpec::vgg_tiny();
  cfg.backend = backend;
  cfg.bucket_bytes = 8 * util::KiB;
  cfg.dram_bytes = 32 * util::MiB;
  cfg.nvram_bytes = 64 * util::MiB;
  cfg.kernel_threads = 2;
  cfg.seed = 7;
  return cfg;
}

/// Every parameter tensor of worker `w`, as raw bytes (read through the
/// sanctioned span API).
std::vector<std::vector<std::uint8_t>> param_bytes(Trainer& t,
                                                   std::size_t w) {
  std::vector<std::vector<std::uint8_t>> out;
  core::Runtime& rt = t.worker_runtime(w);
  for (const dnn::Tensor& p : t.worker_engine(w).parameters()) {
    dm::PinnedSpan span = rt.access(*p.object(), /*write=*/false);
    std::vector<std::uint8_t> bytes(span.size_bytes());
    std::memcpy(bytes.data(), span.data(), span.size_bytes());
    out.push_back(std::move(bytes));
  }
  return out;
}

TEST(DpTrainer, StepProducesACoherentOverlapTimeline) {
  Trainer t(tiny_config(dnn::Backend::kSim));
  const StepMetrics first = t.step();  // builds the bucket layout
  EXPECT_GT(first.buckets, 0u);
  EXPECT_EQ(first.buckets, t.bucket_count());
  const StepMetrics m = t.step();
  EXPECT_GT(m.compute_seconds, 0.0);
  EXPECT_GT(m.comm_busy_seconds, 0.0);
  EXPECT_GE(m.step_seconds,
            m.compute_seconds + m.optimizer_seconds - 1e-12);
  // exposed + overlapped == busy (the split is exhaustive).
  EXPECT_NEAR(m.comm_exposed_seconds + m.comm_overlapped_seconds,
              m.comm_busy_seconds, 1e-9);
  EXPECT_GT(m.samples_per_second, 0.0);
  EXPECT_EQ(m.ring_picks + m.tree_picks, m.buckets);
  // The rollup accumulates both steps.
  EXPECT_EQ(t.comm_counters().reductions, 2 * m.buckets);
  EXPECT_GT(t.comm_counters().bytes_on_wire, 0u);
}

TEST(DpTrainer, SerializedBaselineExposesAllCommTime) {
  TrainerConfig cfg = tiny_config(dnn::Backend::kSim);
  cfg.overlap = false;
  Trainer t(cfg);
  t.step();
  const StepMetrics m = t.step();
  // Nothing hides: every busy second extends the step.
  EXPECT_NEAR(m.comm_exposed_seconds, m.comm_busy_seconds, 1e-9);
  EXPECT_NEAR(m.comm_overlapped_seconds, 0.0, 1e-9);
}

TEST(DpTrainer, WorkersAreDistinctTenantsOfOneSharedHeap) {
  Trainer t(tiny_config(dnn::Backend::kSim));
  t.step();
  dm::DataManager& dm = t.heap().manager;
  ASSERT_EQ(t.worker_count(), 2u);
  const dm::TenantId t0 = t.worker_runtime(0).tenant();
  const dm::TenantId t1 = t.worker_runtime(1).tenant();
  EXPECT_NE(t0.value, t1.value);
  // Each replica's parameters are charged to its own tenant.
  for (const dm::TenantId id : {t0, t1}) {
    const auto stats = dm.tenant_stats(id);
    std::uint64_t resident = 0;
    for (const auto bytes : stats.resident) resident += bytes;
    EXPECT_GT(resident, 0u);
  }
}

TEST(DpTrainer, GradientBucketsRetireAfterTheApply) {
  Trainer t(tiny_config(dnn::Backend::kSim));
  t.step();
  // Between steps no kGradient object survives: buckets are allocated at
  // backward start and retired the moment the reduced result is applied.
  std::size_t live_gradients = 0;
  t.heap().manager.for_each_object([&](const dm::Object& o) {
    if (o.object_class() == dm::ObjectClass::kGradient) ++live_gradients;
  });
  EXPECT_EQ(live_gradients, 0u);
}

TEST(DpTrainer, ReplicasStayBitwiseIdenticalAndRunsReproduce) {
  // kReal: actual gradients flow through pack -> allreduce -> scale ->
  // unpack -> SGD, so replica agreement proves the reduction is exact and
  // canonically ordered, not merely that seeding matched.
  auto run = [] {
    Trainer t(tiny_config(dnn::Backend::kReal));
    double comm_seconds = 0.0;
    float loss = 0.0f;
    for (int i = 0; i < 2; ++i) {
      const StepMetrics m = t.step();
      comm_seconds += m.comm_busy_seconds + m.comm_exposed_seconds;
      loss = m.loss;
    }
    struct Result {
      std::vector<std::vector<std::uint8_t>> w0, w1;
      double comm_seconds;
      float loss;
    };
    return Result{param_bytes(t, 0), param_bytes(t, 1), comm_seconds, loss};
  };
  const auto a = run();
  const auto b = run();
  // Within a run: the replicas applied the same reduced gradients to the
  // same initial parameters -- bitwise equal, tensor by tensor.
  ASSERT_EQ(a.w0.size(), a.w1.size());
  for (std::size_t i = 0; i < a.w0.size(); ++i) {
    EXPECT_EQ(a.w0[i], a.w1[i]) << "replicas diverged at parameter " << i;
  }
  // Across runs: same seed, same bytes, same modeled comm seconds (exact
  // -- the schedule is computed from submission order alone), same loss.
  ASSERT_EQ(a.w0.size(), b.w0.size());
  for (std::size_t i = 0; i < a.w0.size(); ++i) {
    EXPECT_EQ(a.w0[i], b.w0[i]) << "runs diverged at parameter " << i;
  }
  EXPECT_EQ(a.comm_seconds, b.comm_seconds);
  EXPECT_EQ(a.loss, b.loss);
  EXPECT_NE(a.loss, 0.0f);  // real math actually ran
}

TEST(DpTrainer, ForcedAlgorithmsChangeTheModeledCost) {
  TrainerConfig ring_cfg = tiny_config(dnn::Backend::kSim);
  ring_cfg.force_algorithm = comm::Algorithm::kRing;
  TrainerConfig tree_cfg = ring_cfg;
  tree_cfg.force_algorithm = comm::Algorithm::kTree;
  Trainer ring(ring_cfg);
  Trainer tree(tree_cfg);
  ring.step();
  tree.step();
  const StepMetrics mr = ring.step();
  const StepMetrics mt = tree.step();
  EXPECT_EQ(mr.ring_picks, mr.buckets);
  EXPECT_EQ(mt.tree_picks, mt.buckets);
  // vgg_tiny buckets are small (latency-bound regime): at K=2 ring still
  // wins on bytes, but the two schedules must at least disagree.
  EXPECT_NE(mr.comm_busy_seconds, mt.comm_busy_seconds);
}

}  // namespace
}  // namespace ca::dp
