#include "policy/lru_policy.hpp"

#include <gtest/gtest.h>

#include "dm/data_manager.hpp"
#include "util/align.hpp"
#include "util/error.hpp"

namespace ca::policy {
namespace {

class LruPolicyFixture : public ::testing::Test {
 protected:
  // Fast tier holds exactly four 64 KiB objects.
  LruPolicyFixture()
      : platform_(sim::Platform::cascade_lake_scaled(256 * util::KiB,
                                                     2 * util::MiB)),
        dm_(platform_, clock_, counters_) {}

  LruPolicy make(LruPolicyConfig cfg = {}) { return LruPolicy(dm_, cfg); }

  dm::Object* new_object(LruPolicy& p, std::size_t size = 64 * util::KiB) {
    dm::Object* obj = dm_.create_object(size);
    p.place_new(*obj);
    return obj;
  }

  sim::DeviceId device_of(dm::Object& obj) {
    return dm_.getprimary(obj)->device();
  }

  sim::Platform platform_;
  sim::Clock clock_;
  telemetry::TrafficCounters counters_;
  dm::DataManager dm_;
};

TEST_F(LruPolicyFixture, LocalAllocPlacesInFast) {
  auto p = make({.local_alloc = true});
  dm::Object* obj = new_object(p);
  EXPECT_EQ(device_of(*obj), sim::kFast);
  EXPECT_EQ(p.fast_resident_objects(), 1u);
  // A locally allocated object has no slow copy: no initial NVRAM traffic.
  EXPECT_EQ(counters_.device(sim::kSlow).total(), 0u);
  dm_.destroy_object(obj);
}

TEST_F(LruPolicyFixture, NoLocalAllocPlacesInSlow) {
  auto p = make({.local_alloc = false});
  dm::Object* obj = new_object(p);
  EXPECT_EQ(device_of(*obj), sim::kSlow);
  EXPECT_EQ(p.fast_resident_objects(), 0u);
  dm_.destroy_object(obj);
}

TEST_F(LruPolicyFixture, LocalAllocFallsBackToSlowForHugeObjects) {
  auto p = make({.local_alloc = true});
  dm::Object* obj = new_object(p, 512 * util::KiB);  // > fast capacity
  EXPECT_EQ(device_of(*obj), sim::kSlow);
  dm_.destroy_object(obj);
}

TEST_F(LruPolicyFixture, LocalAllocEvictsToMakeRoom) {
  auto p = make({.local_alloc = true});
  std::vector<dm::Object*> objs;
  for (int i = 0; i < 6; ++i) objs.push_back(new_object(p));
  // Fast holds 4; the oldest two were displaced to slow.
  EXPECT_EQ(p.fast_resident_objects(), 4u);
  EXPECT_EQ(device_of(*objs[0]), sim::kSlow);
  EXPECT_EQ(device_of(*objs[1]), sim::kSlow);
  EXPECT_EQ(device_of(*objs[5]), sim::kFast);
  EXPECT_GE(p.op_stats().evictions, 2u);
  for (auto* o : objs) dm_.destroy_object(o);
}

TEST_F(LruPolicyFixture, WillWriteBringsObjectToFast) {
  auto p = make({.local_alloc = false});
  dm::Object* obj = new_object(p);
  ASSERT_EQ(device_of(*obj), sim::kSlow);
  p.will_write(*obj);
  EXPECT_EQ(device_of(*obj), sim::kFast);
  dm_.destroy_object(obj);
}

TEST_F(LruPolicyFixture, WillReadWithoutPrefetchLeavesDataInSlow) {
  auto p = make({.local_alloc = true, .prefetch = false});
  dm::Object* obj = new_object(p);
  p.evict(*obj);
  ASSERT_EQ(device_of(*obj), sim::kSlow);
  p.will_read(*obj);
  EXPECT_EQ(device_of(*obj), sim::kSlow);  // reads served from NVRAM
  dm_.destroy_object(obj);
}

TEST_F(LruPolicyFixture, WillReadWithPrefetchMovesToFast) {
  auto p = make({.local_alloc = true, .prefetch = true});
  dm::Object* obj = new_object(p);
  p.evict(*obj);
  ASSERT_EQ(device_of(*obj), sim::kSlow);
  p.will_read(*obj);
  EXPECT_EQ(device_of(*obj), sim::kFast);
  EXPECT_EQ(p.op_stats().prefetches, 1u);
  dm_.destroy_object(obj);
}

TEST_F(LruPolicyFixture, CacheEmulationModeFaultsReadsIn) {
  // Without L, the policy emulates a true cache: reads fault into fast.
  auto p = make({.local_alloc = false, .prefetch = false});
  dm::Object* obj = new_object(p);
  ASSERT_EQ(device_of(*obj), sim::kSlow);
  p.will_read(*obj);
  EXPECT_EQ(device_of(*obj), sim::kFast);
  dm_.destroy_object(obj);
}

TEST_F(LruPolicyFixture, ArchiveMakesObjectPreferredVictim) {
  auto p = make({.local_alloc = true});
  dm::Object* a = new_object(p);
  dm::Object* b = new_object(p);
  dm::Object* c = new_object(p);
  dm::Object* d = new_object(p);
  // LRU order (cold to hot): a b c d.  Archive d -> d becomes coldest.
  p.archive(*d);
  dm::Object* e = new_object(p);  // needs room: one eviction
  EXPECT_EQ(device_of(*d), sim::kSlow);  // d went, not a
  EXPECT_EQ(device_of(*a), sim::kFast);
  for (auto* o : {a, b, c, d, e}) dm_.destroy_object(o);
}

TEST_F(LruPolicyFixture, ArchiveDoesNotEagerlyEvict) {
  auto p = make({.local_alloc = true});
  dm::Object* obj = new_object(p);
  p.archive(*obj);
  // No memory pressure: the object stays in fast memory (paper §III-E:
  // no downside to archive when everything fits).
  EXPECT_EQ(device_of(*obj), sim::kFast);
  EXPECT_EQ(p.op_stats().evictions, 0u);
  dm_.destroy_object(obj);
}

TEST_F(LruPolicyFixture, GradientObjectsAreBornFastEvenWithoutLocalAlloc) {
  LruPolicyConfig cfg;
  cfg.local_alloc = false;  // generic objects are born slow in this mode
  auto p = make(cfg);
  dm::Object* g = dm_.create_object(64 * util::KiB, "grad", {},
                                    dm::ObjectClass::kGradient);
  p.place_new(*g);
  EXPECT_EQ(device_of(*g), sim::kFast);
  EXPECT_EQ(p.op_stats().gradient_hot_allocs, 1u);
  dm_.destroy_object(g);
}

TEST_F(LruPolicyFixture, ArchivedGradientsAreDemotedEagerly) {
  LruPolicyConfig cfg;
  cfg.local_alloc = true;
  auto p = make(cfg);
  dm::Object* g = dm_.create_object(64 * util::KiB, "grad", {},
                                    dm::ObjectClass::kGradient);
  p.place_new(*g);
  ASSERT_EQ(device_of(*g), sim::kFast);
  // Applied-and-archived gradients leave the fast tier immediately (the
  // class-aware lifetime rule; contrast ArchiveDoesNotEagerlyEvict for
  // generic objects).
  p.archive(*g);
  EXPECT_EQ(device_of(*g), sim::kSlow);
  EXPECT_EQ(p.op_stats().gradient_demotes, 1u);
  dm_.destroy_object(g);
}

TEST_F(LruPolicyFixture, PinnedGradientsAreNotDemotedOnArchive) {
  LruPolicyConfig cfg;
  cfg.local_alloc = true;
  auto p = make(cfg);
  dm::Object* g = dm_.create_object(64 * util::KiB, "grad", {},
                                    dm::ObjectClass::kGradient);
  p.place_new(*g);
  dm_.pin(*g);
  p.archive(*g);  // on the wire: must stay put
  EXPECT_EQ(device_of(*g), sim::kFast);
  EXPECT_EQ(p.op_stats().gradient_demotes, 0u);
  dm_.unpin(*g);
  dm_.destroy_object(g);
}

TEST_F(LruPolicyFixture, RetireWithMReleasesImmediately) {
  auto p = make({.eager_retire = true});
  dm::Object* obj = new_object(p);
  EXPECT_TRUE(p.retire(*obj));
  EXPECT_EQ(p.op_stats().retires_honored, 1u);
}

TEST_F(LruPolicyFixture, RetireWithoutMDefersToGc) {
  auto p = make({.eager_retire = false});
  dm::Object* obj = new_object(p);
  EXPECT_FALSE(p.retire(*obj));
  // Still resident.
  EXPECT_NE(dm_.getprimary(*obj), nullptr);
  dm_.destroy_object(obj);
}

TEST_F(LruPolicyFixture, InFlightObjectsAreNotDisplaced) {
  auto p = make({.local_alloc = true});
  std::vector<dm::Object*> objs;
  for (int i = 0; i < 4; ++i) objs.push_back(new_object(p));
  // Protect the two oldest (as if they were kernel arguments)...
  std::array<dm::Object*, 2> args = {objs[0], objs[1]};
  p.begin_kernel(args);
  // ...then allocate two more objects; eviction must skip the protected.
  objs.push_back(new_object(p));
  objs.push_back(new_object(p));
  EXPECT_EQ(device_of(*objs[0]), sim::kFast);
  EXPECT_EQ(device_of(*objs[1]), sim::kFast);
  EXPECT_EQ(device_of(*objs[2]), sim::kSlow);
  EXPECT_EQ(device_of(*objs[3]), sim::kSlow);
  p.end_kernel();
  for (auto* o : objs) dm_.destroy_object(o);
}

TEST_F(LruPolicyFixture, ReleasedObjectsAreTheFirstVictims) {
  auto p = make({.local_alloc = true});
  std::vector<dm::Object*> objs;
  for (int i = 0; i < 4; ++i) objs.push_back(new_object(p));
  std::array<dm::Object*, 2> args = {objs[0], objs[1]};
  p.begin_kernel(args);
  objs.push_back(new_object(p));  // displaces objs[2]
  objs.push_back(new_object(p));  // displaces objs[3]
  p.end_kernel();
  // Released, the two oldest are again the coldest residents: the next two
  // allocations displace them and nothing else.
  objs.push_back(new_object(p));
  objs.push_back(new_object(p));
  EXPECT_EQ(device_of(*objs[0]), sim::kSlow);
  EXPECT_EQ(device_of(*objs[1]), sim::kSlow);
  EXPECT_EQ(device_of(*objs[4]), sim::kFast);
  EXPECT_EQ(device_of(*objs[5]), sim::kFast);
  EXPECT_EQ(p.op_stats().evictions, 4u);
  for (auto* o : objs) dm_.destroy_object(o);
}

TEST_F(LruPolicyFixture, PinnedObjectsAreNotDisplaced) {
  auto p = make({.local_alloc = true});
  std::vector<dm::Object*> objs;
  for (int i = 0; i < 4; ++i) objs.push_back(new_object(p));
  dm_.pin(*objs[0]);
  objs.push_back(new_object(p));
  EXPECT_EQ(device_of(*objs[0]), sim::kFast);
  EXPECT_EQ(device_of(*objs[1]), sim::kSlow);
  dm_.unpin(*objs[0]);
  for (auto* o : objs) dm_.destroy_object(o);
}

TEST_F(LruPolicyFixture, OnDestroyForgetsBookkeeping) {
  auto p = make({.local_alloc = true});
  dm::Object* obj = new_object(p);
  p.on_destroy(*obj);
  EXPECT_EQ(p.fast_resident_objects(), 0u);
  dm_.destroy_object(obj);
}

TEST_F(LruPolicyFixture, PressureHandlerInvokedWhenSlowFills) {
  auto p = make({.local_alloc = false});
  int pressure_calls = 0;
  std::vector<dm::Object*> dead;
  p.set_pressure_handler([&] {
    ++pressure_calls;
    // Free everything "dead" like a GC would.
    for (auto* o : dead) {
      p.on_destroy(*o);
      dm_.destroy_object(o);
    }
    const bool freed = !dead.empty();
    dead.clear();
    return freed;
  });
  // Fill slow memory completely (2 MiB / 256 KiB = 8 objects).
  for (int i = 0; i < 8; ++i) dead.push_back(new_object(p, 256 * util::KiB));
  // Next allocation triggers the pressure handler which frees the rest.
  dm::Object* obj = new_object(p, 256 * util::KiB);
  EXPECT_EQ(pressure_calls, 1);
  EXPECT_GE(p.op_stats().gc_pressure_calls, 1u);
  dm_.destroy_object(obj);
}

TEST_F(LruPolicyFixture, OutOfMemoryWhenNothingReclaimable) {
  auto p = make({.local_alloc = false});
  std::vector<dm::Object*> objs;
  for (int i = 0; i < 8; ++i) objs.push_back(new_object(p, 256 * util::KiB));
  EXPECT_THROW(new_object(p, 256 * util::KiB), OutOfMemoryError);
  for (auto* o : objs) dm_.destroy_object(o);
}

}  // namespace
}  // namespace ca::policy
