#include <cmath>
// Integration tests: the full system (policy + data manager + GC emulation
// + kernels + trainer) run end-to-end in every operating mode of the
// paper, under real memory pressure, checking both correctness and the
// qualitative orderings §V reports.
#include <gtest/gtest.h>

#include "dnn/models.hpp"
#include "dnn/trainer.hpp"
#include "util/align.hpp"

namespace ca::dnn {
namespace {

/// A model big enough to pressure a small DRAM tier.
ModelSpec pressure_spec() {
  ModelSpec s;
  s.family = ModelSpec::Family::kVgg;
  s.name = "VGG pressure";
  s.stages = {4, 4};
  s.batch = 8;
  s.image = 16;
  s.classes = 10;
  s.base_channels = 16;
  s.compute_efficiency = 0.5;
  return s;
}

HarnessConfig sim_cfg(Mode mode, std::size_t dram = 1 * util::MiB) {
  HarnessConfig c;
  c.mode = mode;
  c.dram_bytes = dram;
  c.nvram_bytes = 64 * util::MiB;
  c.backend = Backend::kSim;
  c.compute_efficiency = pressure_spec().compute_efficiency;
  return c;
}

IterationMetrics run_mode(Mode mode, std::size_t dram = 1 * util::MiB,
                          int iterations = 2) {
  Harness h(sim_cfg(mode, dram));
  auto model = build_model(h.engine(), pressure_spec());
  model->init(h.engine(), 3);
  Trainer trainer(h, *model);
  IterationMetrics last;
  for (int i = 0; i < iterations; ++i) last = trainer.run_iteration();
  return last;  // steady-state iteration
}

class AllModes : public ::testing::TestWithParam<Mode> {};

TEST_P(AllModes, TrainsWithoutErrorUnderPressure) {
  const auto m = run_mode(GetParam());
  EXPECT_GT(m.seconds, 0.0);
  EXPECT_GT(m.dram.total() + m.nvram.total(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllModes,
    ::testing::Values(Mode::kTwoLmNone, Mode::kTwoLmM, Mode::kCaNone,
                      Mode::kCaL, Mode::kCaLM, Mode::kCaLMP,
                      Mode::kNvramOnly),
    [](const ::testing::TestParamInfo<Mode>& info) {
      switch (info.param) {
        case Mode::kTwoLmNone: return "TwoLmNone";
        case Mode::kTwoLmM: return "TwoLmM";
        case Mode::kCaNone: return "CaNone";
        case Mode::kCaL: return "CaL";
        case Mode::kCaLM: return "CaLM";
        case Mode::kCaLMP: return "CaLMP";
        case Mode::kNvramOnly: return "NvramOnly";
      }
      return "Unknown";
    });

TEST(ModeOrdering, MemoryOptimizationReducesNvramWrites) {
  // The Fig. 5 mechanism: without M, dead intermediates get evicted to
  // NVRAM; with M they are freed before eviction ever happens.
  const auto l = run_mode(Mode::kCaL);
  const auto lm = run_mode(Mode::kCaLM);
  EXPECT_LT(lm.nvram.bytes_written, l.nvram.bytes_written);
}

TEST(ModeOrdering, LocalAllocationReducesInitialCopies) {
  // CA:0 births every object in NVRAM and faults it into DRAM before use
  // (a compulsory miss per object) -> far more explicit copies, more DRAM
  // fill writes, and a slower iteration than CA:L.
  const auto none = run_mode(Mode::kCaNone);
  const auto l = run_mode(Mode::kCaL);
  EXPECT_LT(l.dram.bytes_written, none.dram.bytes_written);
  EXPECT_LT(l.nvram.bytes_written, none.nvram.bytes_written);
  EXPECT_LT(l.seconds, none.seconds);
}

TEST(ModeOrdering, CaLmBeatsUnoptimizedTwoLm) {
  // The headline: CachedArrays with local allocation + memory
  // optimizations beats the hardware cache without them.
  const auto two_lm = run_mode(Mode::kTwoLmNone);
  const auto ca = run_mode(Mode::kCaLM);
  EXPECT_LT(ca.seconds, two_lm.seconds);
}

TEST(ModeOrdering, MemoryFreeingHelpsTwoLmToo) {
  // Fig. 2/4: eager freeing improves even the hardware cache (address
  // reuse -> higher hit rate, fewer dirty misses).
  const auto none = run_mode(Mode::kTwoLmNone);
  const auto m = run_mode(Mode::kTwoLmM);
  EXPECT_LE(m.seconds, none.seconds);
  EXPECT_GE(m.cache.hit_rate(), none.cache.hit_rate());
}

TEST(ModeOrdering, NvramOnlyIsMuchSlowerThanDramRich) {
  // Fig. 7: NVRAM-only execution is a multiple slower; generous DRAM
  // recovers the performance.
  const auto nvram_only = run_mode(Mode::kNvramOnly, /*dram=*/0);
  const auto dram_rich = run_mode(Mode::kCaLM, /*dram=*/32 * util::MiB);
  EXPECT_GT(nvram_only.seconds, 2.0 * dram_rich.seconds);
}

TEST(ModeOrdering, TwoLmSeesCacheTraffic) {
  const auto m = run_mode(Mode::kTwoLmNone);
  EXPECT_GT(m.cache.accesses, 0u);
  EXPECT_GT(m.cache.hit_rate(), 0.0);
  EXPECT_GT(m.nvram.bytes_read, 0u);  // miss fills
}

TEST(ModeOrdering, PrefetchMovesReadTrafficFromNvramToDram) {
  const auto lm = run_mode(Mode::kCaLM);
  const auto lmp = run_mode(Mode::kCaLMP);
  // Prefetching serves backward-pass reads from DRAM instead of NVRAM.
  EXPECT_LT(lmp.nvram.bytes_read, lm.nvram.bytes_read);
  EXPECT_GT(lmp.dram.bytes_read, lm.dram.bytes_read);
}

TEST(Integrity, TrainingConvergesUnderEvictionChurn) {
  // Real backend with a DRAM tier far smaller than the working set: every
  // iteration forces evictions, prefetches and writebacks.  If any byte is
  // lost in migration the loss will not fall.
  ModelSpec spec = ModelSpec::vgg_tiny();
  spec.batch = 64;  // activations are 64 KiB: migratable, and the working
                    // set is several times the DRAM tier below
  HarnessConfig c;
  c.mode = Mode::kCaLM;
  c.dram_bytes = 192 * util::KiB;  // pathologically small
  c.nvram_bytes = 32 * util::MiB;
  c.backend = Backend::kReal;
  Harness h(c);
  auto& e = h.engine();
  auto model = build_model(e, spec);
  model->init(e, 5);

  float first = 0.0f, last = 0.0f;
  for (int it = 0; it < 8; ++it) {
    Tensor input = e.tensor(model->input_shape());
    e.fill_normal(input, 1.0f, 123);
    Tensor labels = e.tensor({spec.batch});
    e.fill_labels(labels, spec.classes, 321);
    const float loss =
        e.softmax_ce_loss(model->forward(e, input), labels);
    ASSERT_TRUE(std::isfinite(loss));
    if (it == 0) first = loss;
    last = loss;
    e.backward();
    e.sgd_step(0.05f);
    e.end_iteration();
  }
  // Evictions actually happened...
  auto& lru = static_cast<policy::LruPolicy&>(h.runtime().policy());
  EXPECT_GT(lru.op_stats().evictions, 0u);
  // ...and training still converged.
  EXPECT_LT(last, first * 0.8f);
}

/// A small ResNet under a 2LM cache of 3 x 64 KiB = 3072 sets of 64 B (a
/// set count that is not a power of two), smaller than its working set.
IterationMetrics run_two_lm_resnet(Mode mode) {
  ModelSpec spec = ModelSpec::resnet_tiny();
  spec.stages = {2, 2};
  spec.batch = 4;
  spec.image = 16;
  spec.base_channels = 8;
  HarnessConfig c;
  c.mode = mode;
  c.dram_bytes = 192 * util::KiB;
  c.nvram_bytes = 64 * util::MiB;
  c.backend = Backend::kSim;
  Harness h(c);
  auto model = build_model(h.engine(), spec);
  model->init(h.engine(), 3);
  Trainer trainer(h, *model);
  return trainer.run_iteration();
}

/// Exact 2LM outcomes of one iteration of run_two_lm_resnet().  A change to
/// how the tag model walks or stores lines must not move any of them.
struct TwoLmPins {
  Mode mode;
  std::uint64_t hits, clean_misses, dirty_misses;
  std::uint64_t dram_read, dram_written, nvram_read, nvram_written;
  double seconds;
};

class TwoLmExactCounts : public ::testing::TestWithParam<TwoLmPins> {};

TEST_P(TwoLmExactCounts, OneIterationMatchesPinnedValues) {
  const TwoLmPins& want = GetParam();
  const auto m = run_two_lm_resnet(want.mode);
  EXPECT_EQ(m.cache.hits, want.hits);
  EXPECT_EQ(m.cache.clean_misses, want.clean_misses);
  EXPECT_EQ(m.cache.dirty_misses, want.dirty_misses);
  EXPECT_EQ(m.cache.accesses,
            want.hits + want.clean_misses + want.dirty_misses);
  EXPECT_EQ(m.dram.bytes_read, want.dram_read);
  EXPECT_EQ(m.dram.bytes_written, want.dram_written);
  EXPECT_EQ(m.nvram.bytes_read, want.nvram_read);
  EXPECT_EQ(m.nvram.bytes_written, want.nvram_written);
  EXPECT_EQ(m.seconds, want.seconds);  // simulated time is deterministic
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, TwoLmExactCounts,
    ::testing::Values(TwoLmPins{Mode::kTwoLmNone, 53336, 16076, 25775,
                                5998720, 4421312, 2678464, 1649600,
                                0.63654824677833133},
                      TwoLmPins{Mode::kTwoLmM, 66665, 6705, 21817, 5745408,
                                3568256, 1825408, 1396288,
                                0.52276050124185269}),
    [](const ::testing::TestParamInfo<TwoLmPins>& info) {
      return info.param.mode == Mode::kTwoLmNone ? "TwoLmNone" : "TwoLmM";
    });

TEST(Integrity, ResultsAreDeterministic) {
  const auto a = run_mode(Mode::kCaLM);
  const auto b = run_mode(Mode::kCaLM);
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.nvram.bytes_written, b.nvram.bytes_written);
  EXPECT_EQ(a.dram.bytes_read, b.dram.bytes_read);
}

TEST(Integrity, PeakResidentReflectsPressure) {
  const auto no_m = run_mode(Mode::kCaL);
  const auto with_m = run_mode(Mode::kCaLM);
  // Eager retire keeps the resident footprint smaller.
  EXPECT_LT(with_m.peak_resident_bytes, no_m.peak_resident_bytes);
}

}  // namespace
}  // namespace ca::dnn
