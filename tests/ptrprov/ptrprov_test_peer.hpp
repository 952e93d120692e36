// DataManagerTestPeer (ptrprov flavor): reintroduces, behind a test-only
// friend, the pin-discipline bugs the PinnedSpan accessor exists to
// prevent, plus the raw corruption injectors the dm.pin/prov.* audit
// red/green tests need.  Every injector has a restore counterpart so a
// test can put the manager back into a consistent state before teardown.
#pragma once

#include <source_location>

#include "dm/data_manager.hpp"
#include "dm/object.hpp"
#include "ptrprov/ptrprov.hpp"

namespace ca::dm {

struct DataManagerTestPeer {
  /// The §III-C bug itself: drop the object's pins while raw pointers (or
  /// live spans) still reference its primary.  From here evictfrom and
  /// defragment are free to relocate the bytes underneath them.
  static void force_unpin(Object& object) { object.pin_count_.store(0); }

  /// Restore a sane pin count (so span destructors and audits after the
  /// staged hazard do not underflow).
  static void set_pin(Object& object, int count) {
    object.pin_count_.store(count);
  }

  /// The unpinned raw extraction: what a kernel that skipped the
  /// begin_kernel/end_kernel bracket would do.  Replicates
  /// DataManager::access minus the pin; ca::ptrprov must flag the
  /// extraction itself (kUnpinnedExtract), not trust the caller.
  static const std::byte* unpinned_extract(
      DataManager& dm, Object& object,
      std::source_location loc = std::source_location::current()) {
    Region* primary = object.primary();
    if (primary == nullptr) return nullptr;
    dm.wait_ready(*primary);
    ptrprov::on_release(ptrprov::on_acquire(&object, primary,
                                            primary->generation(),
                                            object.pin_count(),
                                            object.name().c_str(), loc));
    return primary->data();
  }

  /// Corruption injector for the dm.pin "orphaned primary" invariant:
  /// point the pinned object's primary at a region the manager no longer
  /// owns (the caller keeps the old value to restore).
  static Region* swap_primary(Object& object, Region* bogus) {
    Region* prev = object.primary_;
    object.primary_ = bogus;
    return prev;
  }

  /// Corruption injector for the primary's parent back-pointer.
  static Object* swap_region_parent(Region& region, Object* bogus) {
    Object* prev = region.parent_;
    region.parent_ = bogus;
    return prev;
  }

  /// Corruption injector for the "no pinned object on a defragmenting
  /// device" invariant: pretend `dev` is mid-compaction (or -1 to clear).
  static void set_defragmenting(DataManager& dm, int dev) {
    dm.defragmenting_.store(dev, std::memory_order_relaxed);
  }
};

}  // namespace ca::dm
