// Failure injection: systematic misuse of the public APIs must produce
// typed exceptions (never corruption, never aborts), and the system must
// remain fully usable afterwards -- exceptions here are recoverable.
#include <gtest/gtest.h>

#include "core/cached_array.hpp"
#include "core/kernel_launch.hpp"
#include "dnn/harness.hpp"
#include "dnn/models.hpp"
#include "policy/lru_policy.hpp"
#include "util/align.hpp"

namespace ca {
namespace {

core::Runtime::PolicyFactory lru(policy::LruPolicyConfig cfg = {}) {
  return [cfg](dm::DataManager& dm) {
    return std::make_unique<policy::LruPolicy>(dm, cfg);
  };
}

sim::Platform tiny_platform() {
  return sim::Platform::cascade_lake_scaled(256 * util::KiB, 1 * util::MiB);
}

TEST(FailureInjection, SlowTierExhaustionThrowsOomAndRecovers) {
  core::Runtime rt(tiny_platform(), lru({.local_alloc = false}));
  std::vector<core::CachedArray<float>> hogs;
  // Slow tier: 1 MiB; each array is 256 KiB.  The fifth cannot fit.
  for (int i = 0; i < 4; ++i) hogs.emplace_back(rt, 64 * 1024);
  EXPECT_THROW(core::CachedArray<float>(rt, 64 * 1024), OutOfMemoryError);
  // The runtime is not poisoned: freeing makes room again.
  hogs.pop_back();
  rt.gc_collect();
  core::CachedArray<float> ok(rt, 64 * 1024);
  EXPECT_TRUE(ok.valid());
  rt.manager().check_invariants();
}

TEST(FailureInjection, UseAfterRetireIsTypedError) {
  core::Runtime rt(tiny_platform(), lru());
  core::CachedArray<int> a(rt, 64);
  a.retire();
  EXPECT_THROW(a.with_read([](std::span<const int>) {}), InternalError);
  EXPECT_THROW(a.with_write([](std::span<int>) {}), InternalError);
  EXPECT_THROW(a.archive(), InternalError);
  EXPECT_FALSE(a.retire());  // double retire is a harmless no-op
}

TEST(FailureInjection, EmptyArrayUse) {
  core::CachedArray<int> empty;
  EXPECT_THROW(empty.with_read([](std::span<const int>) {}), InternalError);
  EXPECT_FALSE(empty.retire());
}

TEST(FailureInjection, DataManagerMisuseIsRejected) {
  sim::Clock clock;
  telemetry::TrafficCounters counters;
  sim::Platform platform = tiny_platform();
  dm::DataManager dm(platform, clock, counters);

  // Unknown device.
  EXPECT_THROW((void)dm.allocate(sim::DeviceId{7}, 64), InternalError);
  // Zero sizes.
  EXPECT_THROW(dm.create_object(0), UsageError);
  EXPECT_THROW((void)dm.allocate(sim::kFast, 0), UsageError);
  // Cross-object primary.
  dm::Object* a = dm.create_object(64);
  dm::Object* b = dm.create_object(64);
  dm::Region* ra = dm.allocate(sim::kFast, 64);
  dm.setprimary(*a, *ra);
  EXPECT_THROW(dm.setprimary(*b, *ra), UsageError);
  // Double destroy.
  dm.destroy_object(b);
  EXPECT_THROW(dm.destroy_object(b), UsageError);
  dm.destroy_object(a);
  dm.check_invariants();
}

TEST(FailureInjection, EvictfromWithNullCallbackRejected) {
  sim::Clock clock;
  telemetry::TrafficCounters counters;
  sim::Platform platform = tiny_platform();
  dm::DataManager dm(platform, clock, counters);
  EXPECT_THROW(dm.evictfrom(sim::kFast, 0, 64, nullptr), InternalError);
}

TEST(FailureInjection, ExceptionDuringKernelUnpinsArguments) {
  core::Runtime rt(tiny_platform(), lru());
  core::CachedArray<int> a(rt, 64);
  core::KernelLaunch launch(rt);
  launch.reads(a);
  EXPECT_THROW(launch.run([&]() -> int { throw std::runtime_error("boom"); }),
               std::runtime_error);
  // RAII unwound the pins: the object is movable again.
  EXPECT_FALSE(a.object()->pinned());
  auto& lru_policy = static_cast<policy::LruPolicy&>(rt.policy());
  lru_policy.evict(*a.object());
  EXPECT_TRUE(rt.manager().in(*rt.manager().getprimary(*a.object()),
                              sim::kSlow));
}

TEST(FailureInjection, OversizedModelFailsCleanly) {
  // A network whose single tensors exceed every tier must fail with OOM,
  // not crash.
  dnn::HarnessConfig hc;
  hc.mode = dnn::Mode::kCaLM;
  hc.dram_bytes = 256 * util::KiB;
  hc.nvram_bytes = 512 * util::KiB;
  hc.backend = dnn::Backend::kSim;
  dnn::Harness h(hc);
  dnn::ModelSpec spec = dnn::ModelSpec::vgg_tiny();
  spec.batch = 4096;  // input alone exceeds both tiers
  EXPECT_THROW(
      {
        auto model = dnn::build_model(h.engine(), spec);
        dnn::Tensor input = h.engine().tensor(model->input_shape());
        model->forward(h.engine(), input);
      },
      OutOfMemoryError);
}

TEST(FailureInjection, PolicyRefusingEverythingDegradesToSlow) {
  // A policy whose fast tier is fully pinned must still serve allocations
  // from the slow tier rather than failing.
  core::Runtime rt(tiny_platform(), lru({.min_migratable = 0}));
  std::vector<core::CachedArray<float>> pinned_arrays;
  std::vector<dm::Object*> objs;
  for (int i = 0; i < 4; ++i) {
    pinned_arrays.emplace_back(rt, 16 * 1024);  // 64 KiB each: fills fast
    objs.push_back(pinned_arrays.back().object());
  }
  rt.begin_kernel(objs);  // pin all fast residents
  core::CachedArray<float> spill(rt, 16 * 1024);
  EXPECT_TRUE(rt.manager().in(*rt.manager().getprimary(*spill.object()),
                              sim::kSlow));
  rt.end_kernel(objs);
}

TEST(FailureInjection, GcDuringPressureLeavesConsistentState) {
  core::Runtime rt(tiny_platform(), lru({.local_alloc = false,
                                         .eager_retire = false,
                                         .min_migratable = 0}));
  for (int i = 0; i < 64; ++i) {
    core::CachedArray<float> tmp(rt, 32 * 1024);
    tmp.with_write([](std::span<float> s) { s[0] = 1.f; });
  }
  EXPECT_GE(rt.gc_stats().pressure_triggers, 1u);
  rt.gc_collect();
  rt.manager().check_invariants();
  EXPECT_EQ(rt.manager().live_objects(), 0u);
}

}  // namespace
}  // namespace ca
