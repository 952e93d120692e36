#include "core/runtime.hpp"

#include <gtest/gtest.h>

#include "policy/lru_policy.hpp"
#include "util/align.hpp"
#include "util/error.hpp"

namespace ca::core {
namespace {

Runtime::PolicyFactory lru_factory(policy::LruPolicyConfig cfg = {}) {
  return [cfg](dm::DataManager& dm) {
    return std::make_unique<policy::LruPolicy>(dm, cfg);
  };
}

sim::Platform small_platform() {
  return sim::Platform::cascade_lake_scaled(256 * util::KiB, 1 * util::MiB);
}

TEST(Runtime, NewObjectGetsPlacement) {
  Runtime rt(small_platform(), lru_factory());
  dm::Object& obj = rt.new_object(64 * util::KiB, "tensor");
  EXPECT_NE(rt.manager().getprimary(obj), nullptr);
  EXPECT_EQ(obj.name(), "tensor");
  rt.release(obj);
  rt.gc_collect();
}

TEST(Runtime, ReleaseDefersDestructionUntilGc) {
  Runtime rt(small_platform(), lru_factory());
  dm::Object& obj = rt.new_object(64 * util::KiB);
  rt.release(obj);
  EXPECT_EQ(rt.gc_pending(), 1u);
  EXPECT_EQ(rt.manager().live_objects(), 1u);  // still allocated
  const std::size_t freed = rt.gc_collect();
  EXPECT_EQ(freed, 64 * util::KiB);
  EXPECT_EQ(rt.manager().live_objects(), 0u);
  EXPECT_EQ(rt.gc_pending(), 0u);
}

TEST(Runtime, GcChargesTime) {
  Runtime rt(small_platform(), lru_factory());
  rt.release(rt.new_object(1024));
  rt.gc_collect();
  EXPECT_GT(rt.clock().spent(sim::TimeCategory::kGc), 0.0);
  EXPECT_EQ(rt.gc_stats().collections, 1u);
  EXPECT_EQ(rt.gc_stats().objects_collected, 1u);
}

TEST(Runtime, EmptyGcIsFree) {
  Runtime rt(small_platform(), lru_factory());
  EXPECT_EQ(rt.gc_collect(), 0u);
  EXPECT_EQ(rt.gc_stats().collections, 0u);
  EXPECT_DOUBLE_EQ(rt.clock().spent(sim::TimeCategory::kGc), 0.0);
}

TEST(Runtime, RetireWithMDestroysImmediately) {
  Runtime rt(small_platform(), lru_factory({.eager_retire = true}));
  dm::Object& obj = rt.new_object(64 * util::KiB);
  EXPECT_TRUE(rt.retire(obj));
  EXPECT_EQ(rt.manager().live_objects(), 0u);
  EXPECT_EQ(rt.gc_pending(), 0u);
}

TEST(Runtime, RetireWithoutMLeavesObjectForGc) {
  Runtime rt(small_platform(), lru_factory({.eager_retire = false}));
  dm::Object& obj = rt.new_object(64 * util::KiB);
  EXPECT_FALSE(rt.retire(obj));
  EXPECT_EQ(rt.manager().live_objects(), 1u);
  rt.release(obj);
  rt.gc_collect();
  EXPECT_EQ(rt.manager().live_objects(), 0u);
}

TEST(Runtime, AllocationPressureTriggersGcInsteadOfOom) {
  // Slow tier: 1 MiB.  Allocate-and-release 256 KiB objects forever; the
  // pressure handler must collect the garbage instead of throwing.
  Runtime rt(small_platform(),
             lru_factory({.local_alloc = false, .eager_retire = false}));
  for (int i = 0; i < 32; ++i) {
    dm::Object& obj = rt.new_object(256 * util::KiB);
    rt.release(obj);
  }
  EXPECT_GE(rt.gc_stats().pressure_triggers, 1u);
  rt.gc_collect();
  EXPECT_EQ(rt.manager().live_objects(), 0u);
}

TEST(Runtime, GcTriggerFractionCollectsProactively) {
  RuntimeOptions opts;
  opts.gc_trigger_fraction = 0.10;  // collect at 10% residency
  Runtime rt(small_platform(), lru_factory({.local_alloc = false}), opts);
  rt.release(rt.new_object(192 * util::KiB));  // > 10% of 1.25 MiB total
  (void)rt.new_object(1024);                   // triggers the proactive GC
  EXPECT_EQ(rt.gc_stats().collections, 1u);
}

TEST(Runtime, AccessForWriteMarksDirty) {
  Runtime rt(small_platform(), lru_factory());
  dm::Object& obj = rt.new_object(1024);
  dm::Object* args[] = {&obj};
  rt.begin_kernel(args);
  (void)rt.access(obj, false);
  EXPECT_FALSE(rt.manager().isdirty(*rt.manager().getprimary(obj)));
  (void)rt.access(obj, true);
  EXPECT_TRUE(rt.manager().isdirty(*rt.manager().getprimary(obj)));
  rt.end_kernel(args);
  rt.release(obj);
  rt.gc_collect();
}

TEST(Runtime, KernelBracketPinsArguments) {
  Runtime rt(small_platform(), lru_factory());
  dm::Object& obj = rt.new_object(1024);
  dm::Object* args[] = {&obj};
  rt.begin_kernel(args);
  EXPECT_TRUE(obj.pinned());
  rt.end_kernel(args);
  EXPECT_FALSE(obj.pinned());
  rt.release(obj);
  rt.gc_collect();
}

TEST(Runtime, DefragmentAllCompactsHeaps) {
  Runtime rt(small_platform(), lru_factory({.local_alloc = false}));
  dm::Object& a = rt.new_object(64 * util::KiB);
  dm::Object& b = rt.new_object(64 * util::KiB);
  rt.release(a);
  rt.gc_collect();
  rt.defragment_all();
  EXPECT_EQ(rt.manager().getprimary(b)->offset(), 0u);
  rt.release(b);
  rt.gc_collect();
}

TEST(Runtime, TotalCapacitySumsDevices) {
  Runtime rt(small_platform(), lru_factory());
  EXPECT_EQ(rt.total_capacity(), 256 * util::KiB + 1 * util::MiB);
}

}  // namespace
}  // namespace ca::core
