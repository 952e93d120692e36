// Randomized audit stress harness: replays thousands of seeded
// create/link/copyto/evictfrom/defrag/destroy sequences against a naive
// reference model and runs the full invariant audit after every step.
//
// The reference model is deliberately dumb -- flat maps, no sharing with the
// implementation -- so any disagreement indicates a bug in the data manager
// or allocator, not in the model.  Illegal operations are interleaved on
// purpose: every UsageError must leave the manager unchanged and auditing
// clean (strong exception safety at the API surface).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "dm/data_manager.hpp"
#include "mem/freelist_allocator.hpp"
#include "sim/platform.hpp"
#include "util/align.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ca {
namespace {

constexpr std::size_t kAlign = 64;  // DataManager heap alignment

struct ModelObject {
  std::size_t size = 0;
  int pins = 0;
  dm::Region* primary = nullptr;
  std::set<dm::Region*> regions;
};

struct ModelRegion {
  std::uint32_t device = 0;
  std::size_t size = 0;
  dm::Object* parent = nullptr;  // nullptr: orphan
};

class StressHarness {
 public:
  StressHarness(std::uint64_t seed, std::size_t fast_bytes,
                std::size_t slow_bytes)
      : platform_(sim::Platform::cascade_lake_scaled(fast_bytes, slow_bytes)),
        dm_(platform_, clock_, counters_),
        rng_(seed) {}

  void run(std::size_t steps) {
    for (std::size_t i = 0; i < steps; ++i) {
      step();
      audit_and_reconcile(i);
      if (::testing::Test::HasFatalFailure()) return;
    }
    teardown();
    audit_and_reconcile(steps);
  }

 private:
  // --- randomness helpers --------------------------------------------------

  std::size_t uniform(std::size_t lo, std::size_t hi) {  // inclusive
    return lo + rng_() % (hi - lo + 1);
  }
  bool chance(std::size_t percent) { return rng_() % 100 < percent; }

  template <typename T>
  T pick(const std::vector<T>& v) {
    return v[rng_() % v.size()];
  }

  std::size_t random_size() {
    // Power-law-ish sizes: mostly small, occasionally near-heap-sized.
    switch (rng_() % 4) {
      case 0:
        return uniform(1, 512);
      case 1:
        return uniform(512, 8 * util::KiB);
      case 2:
        return uniform(8 * util::KiB, 64 * util::KiB);
      default:
        return uniform(64 * util::KiB, 256 * util::KiB);
    }
  }

  sim::DeviceId random_device() {
    return {static_cast<std::uint32_t>(rng_() % dm_.device_count())};
  }

  // --- model queries -------------------------------------------------------

  std::vector<dm::Object*> objects() const {
    std::vector<dm::Object*> out;
    for (const auto& [obj, m] : model_objects_) out.push_back(obj);
    return out;
  }

  std::vector<dm::Region*> orphans() const {
    std::vector<dm::Region*> out;
    for (const auto& [r, m] : model_regions_) {
      if (m.parent == nullptr) out.push_back(r);
    }
    return out;
  }

  // --- operations ----------------------------------------------------------

  void step() {
    switch (rng_() % 16) {
      case 0:
      case 1:
        op_create_object();
        break;
      case 2:
      case 3:
        op_allocate_orphan();
        break;
      case 4:
        op_attach_primary();
        break;
      case 5:
        op_link_sibling();
        break;
      case 6:
        op_copy_between_siblings();
        break;
      case 7:
        op_promote_sibling();
        break;
      case 8:
        op_markdirty_primary();
        break;
      case 9:
        op_unlink_sibling();
        break;
      case 10:
        op_free_region();
        break;
      case 11:
        op_destroy_object();
        break;
      case 12:
        op_pin_unpin();
        break;
      case 13:
        op_evictfrom();
        break;
      case 14:
        op_defragment();
        break;
      default:
        op_illegal();
        break;
    }
  }

  void op_create_object() {
    dm::Object* obj = dm_.create_object(random_size(), "o" + std::to_string(serial_++));
    model_objects_[obj] = ModelObject{obj->size(), 0, nullptr, {}};
  }

  dm::Region* allocate_tracked(sim::DeviceId dev, std::size_t size) {
    dm::Region* r = dm_.allocate(dev, size);
    if (r != nullptr) {
      model_regions_[r] = ModelRegion{dev.value, size, nullptr};
      std::memset(r->data(), static_cast<int>(rng_() % 256), size);
    }
    return r;
  }

  void op_allocate_orphan() { allocate_tracked(random_device(), random_size()); }

  // Attach an exact-size orphan to a primary-less object (Listing-1 path).
  void op_attach_primary() {
    std::vector<dm::Object*> candidates;
    for (const auto& [obj, m] : model_objects_) {
      if (m.primary == nullptr && m.pins == 0) candidates.push_back(obj);
    }
    if (candidates.empty()) return;
    dm::Object* obj = pick(candidates);
    dm::Region* r = allocate_tracked(random_device(), obj->size());
    if (r == nullptr) return;
    dm_.setprimary(*obj, *r);
    auto& m = model_objects_.at(obj);
    m.primary = r;
    m.regions.insert(r);
    model_regions_.at(r).parent = obj;
  }

  void op_link_sibling() {
    std::vector<dm::Object*> candidates;
    for (const auto& [obj, m] : model_objects_) {
      if (m.primary != nullptr && m.regions.size() < dm_.device_count()) {
        candidates.push_back(obj);
      }
    }
    if (candidates.empty()) return;
    dm::Object* obj = pick(candidates);
    auto& m = model_objects_.at(obj);
    // A device without a region for this object yet.
    std::vector<std::uint32_t> free_devices;
    for (std::uint32_t d = 0; d < dm_.device_count(); ++d) {
      if (obj->region_on({d}) == nullptr) free_devices.push_back(d);
    }
    if (free_devices.empty()) return;
    const sim::DeviceId dev{pick(free_devices)};
    dm::Region* r = allocate_tracked(dev, obj->size());
    if (r == nullptr) return;
    dm_.link(*m.primary, *r);
    dm_.copyto(*r, *m.primary);  // siblings synchronized, both clean
    m.regions.insert(r);
    model_regions_.at(r).parent = obj;
  }

  void op_copy_between_siblings() {
    for (const auto& [obj, m] : model_objects_) {
      if (m.regions.size() < 2) continue;
      std::vector<dm::Region*> rs(m.regions.begin(), m.regions.end());
      dm::Region* dst = pick(rs);
      dm::Region* src = m.primary;
      if (dst == src) continue;
      if (chance(50)) {
        dm_.copyto(*dst, *src);
      } else {
        dm_.copyto_async(*dst, *src);
        if (chance(70)) dm_.wait_ready(*dst);
      }
      return;
    }
  }

  // Switch the primary to a sibling, synchronizing first if dirty (the
  // policy-layer discipline the audit's dirty-sibling rule encodes).
  void op_promote_sibling() {
    for (const auto& [obj, m] : model_objects_) {
      if (m.regions.size() < 2 || m.pins > 0) continue;
      std::vector<dm::Region*> rs(m.regions.begin(), m.regions.end());
      dm::Region* target = pick(rs);
      if (target == m.primary) continue;
      if (dm_.isdirty(*m.primary)) dm_.copyto(*target, *m.primary);
      dm_.setprimary(*obj, *target);
      model_objects_.at(obj).primary = target;
      return;
    }
  }

  void op_markdirty_primary() {
    for (const auto& [obj, m] : model_objects_) {
      if (m.primary == nullptr) continue;
      if (!chance(60)) continue;
      dm_.markdirty(*m.primary);
      std::memset(m.primary->data(), static_cast<int>(rng_() % 256),
                  std::min<std::size_t>(m.primary->size(), 8));
      return;
    }
  }

  void op_unlink_sibling() {
    for (const auto& [obj, m] : model_objects_) {
      for (dm::Region* r : m.regions) {
        if (r == m.primary) continue;
        dm_.unlink(*r);
        dm_.markclean(*r);  // an orphan has no siblings to be dirty against
        auto& mo = model_objects_.at(obj);
        mo.regions.erase(r);
        model_regions_.at(r).parent = nullptr;
        return;
      }
    }
  }

  void op_free_region() {
    // Prefer orphans; otherwise free a non-primary sibling or a sole
    // primary of an unpinned object.
    const auto os = orphans();
    if (!os.empty() && chance(70)) {
      dm::Region* r = pick(os);
      dm_.free(r);
      model_regions_.erase(r);
      return;
    }
    for (const auto& [obj, m] : model_objects_) {
      if (m.regions.empty()) continue;
      if (m.regions.size() == 1 && m.pins == 0) {
        dm::Region* r = *m.regions.begin();
        dm_.free(r);
        auto& mo = model_objects_.at(obj);
        mo.regions.clear();
        mo.primary = nullptr;
        model_regions_.erase(r);
        return;
      }
      for (dm::Region* r : m.regions) {
        if (r == m.primary) continue;
        dm_.free(r);
        model_objects_.at(obj).regions.erase(r);
        model_regions_.erase(r);
        return;
      }
    }
  }

  void op_destroy_object() {
    std::vector<dm::Object*> candidates;
    for (const auto& [obj, m] : model_objects_) {
      if (m.pins == 0) candidates.push_back(obj);
    }
    if (candidates.empty()) return;
    dm::Object* obj = pick(candidates);
    for (dm::Region* r : model_objects_.at(obj).regions) {
      model_regions_.erase(r);
    }
    model_objects_.erase(obj);
    dm_.destroy_object(obj);
  }

  void op_pin_unpin() {
    for (const auto& [obj, m] : model_objects_) {
      if (m.pins > 0 && chance(60)) {
        dm_.unpin(*obj);
        --model_objects_.at(obj).pins;
        return;
      }
      if (m.primary != nullptr && m.pins == 0 && chance(30)) {
        dm_.pin(*obj);
        ++model_objects_.at(obj).pins;
        return;
      }
    }
  }

  // Reclaim a random window: orphans are freed, unpinned non-primary
  // siblings are unlinked-and-freed, everything else refuses.
  void op_evictfrom() {
    const sim::DeviceId dev = random_device();
    const std::size_t cap = dm_.capacity(dev);
    const std::size_t want = uniform(kAlign, cap / 4);
    const std::size_t start = uniform(0, cap - 1);
    dm_.evictfrom(dev, start, want, [&](dm::Region& r) {
      auto& m = model_regions_.at(&r);
      if (m.parent == nullptr) {
        model_regions_.erase(&r);
        dm_.free(&r);
        return true;
      }
      auto& mo = model_objects_.at(m.parent);
      if (mo.pins > 0 || mo.primary == &r) return false;
      mo.regions.erase(&r);
      model_regions_.erase(&r);
      dm_.free(&r);  // linked non-primary: free detaches first
      return true;
    });
  }

  void op_defragment() {
    const sim::DeviceId dev = random_device();
    // defragment refuses devices holding pinned regions; skip those.
    for (const auto& [obj, m] : model_objects_) {
      if (m.pins > 0 && obj->region_on(dev) != nullptr) return;
    }
    dm_.defragment(dev);
  }

  // Every illegal call must throw UsageError and leave the system clean.
  void op_illegal() {
    switch (rng_() % 5) {
      case 0: {  // destroy a pinned object
        for (const auto& [obj, m] : model_objects_) {
          if (m.pins > 0) {
            EXPECT_THROW(dm_.destroy_object(obj), UsageError);
            return;
          }
        }
        return;
      }
      case 1: {  // free the primary of an object with siblings
        for (const auto& [obj, m] : model_objects_) {
          if (m.regions.size() > 1) {
            EXPECT_THROW(dm_.free(m.primary), UsageError);
            return;
          }
        }
        return;
      }
      case 2: {  // unlink the primary
        for (const auto& [obj, m] : model_objects_) {
          if (m.primary != nullptr) {
            EXPECT_THROW(dm_.unlink(*m.primary), UsageError);
            return;
          }
        }
        return;
      }
      case 3: {  // copyto into a smaller destination
        dm::Region* small = nullptr;
        dm::Region* large = nullptr;
        for (const auto& [r, m] : model_regions_) {
          if (small == nullptr || m.size < model_regions_.at(small).size)
            small = r;
          if (large == nullptr || m.size > model_regions_.at(large).size)
            large = r;
        }
        if (small != nullptr && large != nullptr &&
            model_regions_.at(small).size < model_regions_.at(large).size) {
          EXPECT_THROW(dm_.copyto(*small, *large), UsageError);
        }
        return;
      }
      default: {  // setprimary on a pinned object
        for (const auto& [obj, m] : model_objects_) {
          if (m.pins > 0 && m.primary != nullptr) {
            EXPECT_THROW(dm_.setprimary(*obj, *m.primary), UsageError);
            return;
          }
        }
        return;
      }
    }
  }

  void teardown() {
    for (const auto& [obj, m] : model_objects_) {
      while (model_objects_.at(obj).pins > 0) {
        dm_.unpin(*obj);
        --model_objects_.at(obj).pins;
      }
      dm_.destroy_object(obj);
    }
    model_objects_.clear();
    for (const auto& [r, m] : model_regions_) {
      if (m.parent == nullptr) dm_.free(r);
    }
    model_regions_.clear();
  }

  // --- the audit + model reconciliation after every step -------------------

  void audit_and_reconcile(std::size_t step) {
    const auto report = audit::verify(dm_);
    ASSERT_TRUE(report.ok())
        << "audit violations after step " << step << ":\n"
        << report.to_string();

    ASSERT_EQ(dm_.live_objects(), model_objects_.size()) << "step " << step;
    std::size_t model_region_count = 0;
    std::vector<std::size_t> model_bytes(dm_.device_count(), 0);
    for (const auto& [r, m] : model_regions_) {
      ++model_region_count;
      model_bytes[m.device] += util::align_up(m.size, kAlign);
    }
    ASSERT_EQ(dm_.live_regions(), model_region_count) << "step " << step;
    for (std::uint32_t d = 0; d < dm_.device_count(); ++d) {
      const auto stats = dm_.device_stats({d});
      ASSERT_EQ(stats.allocated, model_bytes[d])
          << "allocated-byte drift on device " << d << " at step " << step;
    }

    // Object-level reconciliation (exact, not statistical).
    for (const auto& [obj, m] : model_objects_) {
      ASSERT_EQ(dm_.getprimary(*obj), m.primary) << "step " << step;
      ASSERT_EQ(obj->region_count(), m.regions.size()) << "step " << step;
      ASSERT_EQ(obj->pin_count(), m.pins) << "step " << step;
      for (dm::Region* r : m.regions) {
        ASSERT_EQ(dm_.parent(*r), obj) << "step " << step;
      }
    }
  }

  sim::Platform platform_;
  sim::Clock clock_;
  telemetry::TrafficCounters counters_;
  dm::DataManager dm_;
  util::Xoshiro256 rng_;
  std::map<dm::Object*, ModelObject> model_objects_;
  std::map<dm::Region*, ModelRegion> model_regions_;
  std::size_t serial_ = 0;
};

// The acceptance run: >= 5000 steps, audited after every one.  The CA_AUDIT
// hook is installed for the whole run so that, in builds compiled with
// CA_AUDIT_ENABLED (Debug), every *internal* mutation boundary --
// including the intermediate states inside evictfrom -- is audited too,
// with abort-on-violation.
TEST(AuditStress, FiveThousandSeededStepsStayInvariantClean) {
  audit::ScopedAbortHook hook;
  StressHarness h(/*seed=*/0xCA11AB1E5EEDULL, 2 * util::MiB, 8 * util::MiB);
  h.run(5200);
}

TEST(AuditStress, SecondSeedSmallHeapsForceEvictionPressure) {
  audit::ScopedAbortHook hook;
  // Tiny fast tier: allocations fail often, exercising failure paths.
  StressHarness h(/*seed=*/42, 256 * util::KiB, 1 * util::MiB);
  h.run(1500);
}

TEST(AuditStress, ThirdSeedLargeObjects) {
  audit::ScopedAbortHook hook;
  StressHarness h(/*seed=*/7777, 1 * util::MiB, 4 * util::MiB);
  h.run(1500);
}

// --- allocator-level sweep ---------------------------------------------------
//
// A seeded churn run with the full allocator audit (tiling, bins, bitmaps,
// boundary tags) after every step.

void run_allocator_sweep(std::uint64_t seed, std::size_t steps) {
  mem::FreeListAllocator alloc(4 * util::MiB);
  util::Xoshiro256 rng(seed);
  std::vector<std::size_t> live;
  for (std::size_t step = 0; step < steps; ++step) {
    if (rng.bounded(100) < 55 || live.empty()) {
      std::size_t size;
      switch (rng.bounded(4)) {
        case 0: size = 1 + rng.bounded(512); break;
        case 1: size = 1 + rng.bounded(8 * util::KiB); break;
        case 2: size = 1 + rng.bounded(64 * util::KiB); break;
        default: size = 1 + rng.bounded(512 * util::KiB); break;
      }
      if (const auto off = alloc.allocate(size)) live.push_back(*off);
    } else {
      const std::size_t pick = rng.bounded(live.size());
      alloc.free(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
    const auto report = audit::verify(alloc);
    ASSERT_TRUE(report.ok())
        << "allocator audit violations after step " << step << ":\n"
        << report.to_string();
  }
}

TEST(AuditStress, AllocatorFirstFitSweepStaysClean) {
  run_allocator_sweep(/*seed=*/0xF125F17, 5200);
}

}  // namespace
}  // namespace ca
