// Policy conformance kit: the behavioural contract every Policy
// implementation must satisfy (see docs/POLICY_GUIDE.md), run against all
// bundled policies.  Downstream users can add their own factory to the
// sweep to validate a custom policy.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "dm/data_manager.hpp"
#include "policy/lru_policy.hpp"
#include "policy/static_policy.hpp"
#include "policy/tiered_policy.hpp"
#include "util/align.hpp"
#include "util/rng.hpp"

namespace ca::policy {
namespace {

struct PolicyCase {
  const char* name;
  std::function<std::unique_ptr<Policy>(dm::DataManager&)> make;
};

std::vector<PolicyCase> all_policies() {
  return {
      {"LruLM",
       [](dm::DataManager& dm) {
         return std::make_unique<LruPolicy>(
             dm, LruPolicyConfig{.min_migratable = 0});
       }},
      {"LruNone",
       [](dm::DataManager& dm) {
         return std::make_unique<LruPolicy>(
             dm, LruPolicyConfig{.local_alloc = false,
                                 .eager_retire = false,
                                 .min_migratable = 0});
       }},
      {"LruLMP",
       [](dm::DataManager& dm) {
         return std::make_unique<LruPolicy>(
             dm, LruPolicyConfig{.prefetch = true, .min_migratable = 0});
       }},
      {"LruAsync",
       [](dm::DataManager& dm) {
         return std::make_unique<LruPolicy>(
             dm, LruPolicyConfig{.prefetch = true,
                                 .min_migratable = 0,
                                 .async_movement = true});
       }},
      {"PinnedSlow",
       [](dm::DataManager& dm) {
         return std::make_unique<PinnedDevicePolicy>(dm, sim::kSlow);
       }},
      {"PinnedFast",
       [](dm::DataManager& dm) {
         return std::make_unique<PinnedDevicePolicy>(dm, sim::kFast);
       }},
      {"Tiered",
       [](dm::DataManager& dm) {
         TieredLruPolicyConfig cfg;
         cfg.tiers = {sim::kFast, sim::kSlow};
         cfg.min_migratable = 0;
         return std::make_unique<TieredLruPolicy>(dm, cfg);
       }},
  };
}

class PolicyConformance : public ::testing::TestWithParam<std::size_t> {
 protected:
  PolicyConformance()
      : platform_(sim::Platform::cascade_lake_scaled(256 * util::KiB,
                                                     2 * util::MiB)),
        dm_(platform_, clock_, counters_),
        policy_(all_policies()[GetParam()].make(dm_)) {}

  dm::Object* make_object(std::size_t size = 64 * util::KiB) {
    dm::Object* obj = dm_.create_object(size);
    try {
      policy_->place_new(*obj);
    } catch (...) {
      // Mirror Runtime::new_object: no placement, no object.
      dm_.destroy_object(obj);
      throw;
    }
    return obj;
  }

  void destroy(dm::Object* obj) {
    policy_->on_destroy(*obj);
    dm_.destroy_object(obj);
  }

  sim::Platform platform_;
  sim::Clock clock_;
  telemetry::TrafficCounters counters_;
  dm::DataManager dm_;
  std::unique_ptr<Policy> policy_;
};

TEST_P(PolicyConformance, PlaceNewProducesAPrimary) {
  dm::Object* obj = make_object();
  dm::Region* primary = dm_.getprimary(*obj);
  ASSERT_NE(primary, nullptr);
  EXPECT_EQ(primary->parent(), obj);
  EXPECT_GE(primary->size(), obj->size());
  destroy(obj);
}

TEST_P(PolicyConformance, HintsNeverCorruptData) {
  dm::Object* obj = make_object();
  dm::Region* r = dm_.getprimary(*obj);
  std::memset(r->data(), 0xAB, obj->size());
  dm_.markdirty(*r);
  policy_->will_read(*obj);
  policy_->will_write(*obj);
  policy_->will_use(*obj);
  policy_->will_read_partial(*obj, 64);
  policy_->archive(*obj);
  r = dm_.getprimary(*obj);
  ASSERT_NE(r, nullptr);
  dm_.wait_ready(*r);
  for (std::size_t i = 0; i < obj->size(); i += 4097) {
    ASSERT_EQ(std::to_integer<unsigned>(r->data()[i]), 0xABu);
  }
  destroy(obj);
}

TEST_P(PolicyConformance, PinnedPrimariesSurviveAnyHint) {
  dm::Object* obj = make_object();
  dm_.pin(*obj);
  dm::Region* before = dm_.getprimary(*obj);
  policy_->will_read(*obj);
  policy_->will_write(*obj);
  policy_->archive(*obj);
  EXPECT_EQ(dm_.getprimary(*obj), before);
  dm_.unpin(*obj);
  destroy(obj);
}

TEST_P(PolicyConformance, PressureNeverDisplacesPinnedObjects) {
  dm::Object* pinned = make_object();
  dm_.pin(*pinned);
  const dm::Region* before = dm_.getprimary(*pinned);
  // Enough pressure to overflow the fast tier several times.  A policy
  // with no spill tier may legitimately run out -- but must never move
  // the pinned object.
  std::vector<dm::Object*> filler;
  for (int i = 0; i < 8; ++i) {
    try {
      filler.push_back(make_object());
    } catch (const OutOfMemoryError&) {
      break;
    }
  }
  EXPECT_EQ(dm_.getprimary(*pinned), before);
  dm_.unpin(*pinned);
  destroy(pinned);
  for (auto* o : filler) destroy(o);
}

TEST_P(PolicyConformance, RetireSemanticsAreConsistent) {
  dm::Object* obj = make_object();
  const bool released = policy_->retire(*obj);
  if (released) {
    // The runtime destroys it next; the policy must tolerate the destroy.
    destroy(obj);
  } else {
    // Storage must still be intact.
    EXPECT_NE(dm_.getprimary(*obj), nullptr);
    destroy(obj);
  }
}

TEST_P(PolicyConformance, KernelBracketsNest) {
  dm::Object* a = make_object(16 * util::KiB);
  dm::Object* b = make_object(16 * util::KiB);
  dm::Object* args[] = {a, b};
  policy_->begin_kernel(args);
  policy_->will_read(*a);
  policy_->will_write(*b);
  policy_->end_kernel();
  destroy(a);
  destroy(b);
}

TEST_P(PolicyConformance, EndKernelReleasesExactlyItsArgs) {
  // Four quarter-tier objects; `control` is never a kernel argument, so it
  // shows what pressure does to an unprotected object under this policy.
  dm::Object* a = make_object();
  dm::Object* b = make_object();
  dm::Object* c = make_object();
  dm::Object* control = make_object();
  for (dm::Object* o : {a, b, c, control}) policy_->will_write(*o);
  const sim::DeviceId a_dev = dm_.getprimary(*a)->device();
  const sim::DeviceId b_dev = dm_.getprimary(*b)->device();
  const sim::DeviceId control_dev = dm_.getprimary(*control)->device();
  const dm::Region* c_primary = dm_.getprimary(*c);

  dm::Object* first[] = {a, a, b};  // a repeated argument
  policy_->begin_kernel(first);
  policy_->end_kernel();
  dm::Object* second[] = {c};
  policy_->begin_kernel(second);

  // Fast-memory pressure while the second bracket is open: every filler is
  // written, so even a policy that places new objects in slow memory
  // stages it in fast memory.
  std::vector<dm::Object*> filler;
  for (int i = 0; i < 8; ++i) {
    try {
      filler.push_back(make_object());
      policy_->will_write(*filler.back());
    } catch (const OutOfMemoryError&) {
      break;
    }
  }
  // c is an argument of the open bracket and must not have moved; a and b
  // were released by the first end_kernel and fare exactly like control.
  EXPECT_EQ(dm_.getprimary(*c), c_primary);
  const bool control_moved =
      dm_.getprimary(*control)->device() != control_dev;
  EXPECT_EQ(dm_.getprimary(*a)->device() != a_dev, control_moved);
  EXPECT_EQ(dm_.getprimary(*b)->device() != b_dev, control_moved);
  policy_->end_kernel();

  // Destroying an object while it is flagged in flight, then closing the
  // bracket, must not touch the destroyed object's bookkeeping.
  dm::Object* third[] = {b, c};
  policy_->begin_kernel(third);
  destroy(b);
  policy_->end_kernel();

  for (dm::Object* o : {a, c, control}) destroy(o);
  for (auto* o : filler) destroy(o);
  dm_.check_invariants();
}

TEST_P(PolicyConformance, SurvivesChurnWithInvariantsIntact) {
  std::vector<dm::Object*> live;
  util::Xoshiro256 rng(17);
  for (int step = 0; step < 200; ++step) {
    if (live.empty() || rng.uniform() < 0.6) {
      try {
        live.push_back(make_object(8 * util::KiB + rng.bounded(56) * 1024));
      } catch (const OutOfMemoryError&) {
        // Single-tier policies may genuinely fill up; that is contractual.
        dm_.check_invariants();
      }
    } else {
      const std::size_t i = rng.bounded(live.size());
      destroy(live[i]);
      live[i] = live.back();
      live.pop_back();
    }
    if (!live.empty() && rng.uniform() < 0.5) {
      dm::Object* obj = live[rng.bounded(live.size())];
      switch (rng.bounded(4)) {
        case 0: policy_->will_read(*obj); break;
        case 1: policy_->will_write(*obj); break;
        case 2: policy_->archive(*obj); break;
        case 3: policy_->will_use(*obj); break;
      }
    }
  }
  dm_.check_invariants();
  for (auto* o : live) destroy(o);
  EXPECT_EQ(dm_.live_objects(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyConformance,
    ::testing::Range<std::size_t>(0, all_policies().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return all_policies()[info.param].name;
    });

}  // namespace
}  // namespace ca::policy
