// audit::verify detection tests: a clean system audits clean, and each
// class of deliberate corruption -- injected through the test-only
// AllocatorTestPeer seam -- is caught under its catalogued invariant name.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "audit/audit.hpp"
#include "dm/audit_hook.hpp"
#include "dm/data_manager.hpp"
#include "dm/pinned_span.hpp"
#include "mem/freelist_allocator.hpp"
#include "ptrprov/ptrprov.hpp"
#include "sim/platform.hpp"
#include "util/align.hpp"

namespace ca::mem {

// The deliberately-broken-allocator hook: a friend of FreeListAllocator
// (declared in the header, defined only here) that mutates private state in
// ways the public API never would, so the audit's detection power can be
// proven test by test.
struct AllocatorTestPeer {
  static constexpr std::uint32_t kNil = FreeListAllocator::kNil;

  static std::uint32_t first_free_node(FreeListAllocator& a) {
    for (std::uint32_t i = a.head_; i != kNil; i = a.nodes_[i].next) {
      if (!a.nodes_[i].allocated) return i;
    }
    return kNil;
  }

  /// Unlink a free block from its size-class bin without freeing it: the
  /// block stays in the tiling but allocate() can no longer find it.
  static void drop_free_index_entry(FreeListAllocator& a) {
    const std::uint32_t i = first_free_node(a);
    ASSERT_NE(i, kNil) << "no free block to unlink";
    a.bin_unlink(i);
  }

  /// Thread a dangling node (not part of the tiling) into its bin.
  static void forge_free_index_entry(FreeListAllocator& a, std::size_t size,
                                     std::size_t offset) {
    const std::uint32_t i = a.new_node();
    a.nodes_[i].offset = offset;
    a.nodes_[i].size = size;
    a.bin_link(i);
  }

  /// Refile a free block under the wrong size class (the bin links stay
  /// well-formed -- only the classification is wrong).
  static void misfile_free_block(FreeListAllocator& a) {
    const std::uint32_t i = first_free_node(a);
    ASSERT_NE(i, kNil) << "no free block to misfile";
    a.bin_unlink(i);
    FreeListAllocator::Node& n = a.nodes_[i];
    const std::size_t wrong =
        (FreeListAllocator::bin_for_units(n.size >> a.shift_) + 1) %
        FreeListAllocator::kBinCount;
    n.bin = static_cast<std::uint16_t>(wrong);
    n.bin_prev = kNil;
    n.bin_next = a.bins_[wrong].head;
    if (a.bins_[wrong].head != kNil) {
      a.nodes_[a.bins_[wrong].head].bin_prev = i;
    } else {
      a.bins_[wrong].tail = i;
    }
    a.bins_[wrong].head = i;
    a.set_bin_bit(wrong);
  }

  /// Swap the first two entries of the first bin holding at least two
  /// blocks, breaking the address order first-fit relies on.
  static void reorder_bin_entries(FreeListAllocator& a) {
    for (auto& bl : a.bins_) {
      if (bl.head == kNil || a.nodes_[bl.head].bin_next == kNil) continue;
      const std::uint32_t first = bl.head;
      const std::uint32_t second = a.nodes_[first].bin_next;
      bl.head = second;
      a.nodes_[second].bin_prev = kNil;
      a.nodes_[first].bin_next = a.nodes_[second].bin_next;
      if (a.nodes_[first].bin_next != kNil) {
        a.nodes_[a.nodes_[first].bin_next].bin_prev = first;
      } else {
        bl.tail = first;
      }
      a.nodes_[second].bin_next = first;
      a.nodes_[first].bin_prev = second;
      return;
    }
    FAIL() << "no bin holds two blocks";
  }

  /// Clear the occupancy bit of the first occupied bin (hides its blocks
  /// from allocate's find-first-set).
  static void clear_occupied_bin_bit(FreeListAllocator& a) {
    const std::uint32_t i = first_free_node(a);
    ASSERT_NE(i, kNil) << "no free block";
    a.clear_bin_bit(a.nodes_[i].bin);
  }

  /// Set the occupancy bit of an empty bin.
  static void set_stray_bin_bit(FreeListAllocator& a) {
    for (std::size_t b = 0; b < FreeListAllocator::kBinCount; ++b) {
      if (a.bins_[b].head == kNil) {
        a.set_bin_bit(b);
        return;
      }
    }
    FAIL() << "every bin occupied";
  }

  /// Point a block's address-order prev link at itself (a torn boundary
  /// tag: free() would coalesce with the wrong neighbour).
  static void corrupt_prev_link(FreeListAllocator& a) {
    for (std::uint32_t i = a.head_; i != kNil; i = a.nodes_[i].next) {
      if (a.nodes_[i].prev != kNil) {
        a.nodes_[i].prev = i;
        return;
      }
    }
    FAIL() << "heap has a single block";
  }

  /// Drop a block start from the start bitmap (for_blocks_from would skip
  /// or mis-resolve the predecessor query).
  static void clear_start_bit_of_block(FreeListAllocator& a) {
    for (std::uint32_t i = a.head_; i != kNil; i = a.nodes_[i].next) {
      if (a.nodes_[i].offset != 0) {
        a.clear_start_bit(a.nodes_[i].offset);
        return;
      }
    }
    FAIL() << "heap has a single block";
  }

  /// Split the first free block into two adjacent free blocks (both binned
  /// and indexed, so only the coalescing invariant breaks).
  static void split_free_block(FreeListAllocator& a) {
    for (std::uint32_t i = a.head_; i != kNil; i = a.nodes_[i].next) {
      if (a.nodes_[i].allocated || a.nodes_[i].size < 2 * a.alignment_) {
        continue;
      }
      a.bin_unlink(i);
      const std::size_t size = a.nodes_[i].size;
      const std::size_t half = a.alignment_ * (size / a.alignment_ / 2);
      a.nodes_[i].size = half;
      const std::uint32_t old_next = a.nodes_[i].next;
      const std::uint32_t r = a.new_node();
      a.nodes_[r].offset = a.nodes_[i].offset + half;
      a.nodes_[r].size = size - half;
      a.nodes_[r].prev = i;
      a.nodes_[r].next = old_next;
      if (old_next != kNil) a.nodes_[old_next].prev = r;
      a.nodes_[i].next = r;
      a.index_.emplace(a.nodes_[r].offset, r);
      a.set_start_bit(a.nodes_[r].offset);
      a.bin_link(i);
      a.bin_link(r);
      ++a.free_blocks_;
      return;
    }
    FAIL() << "no free block large enough to split";
  }

  /// Shrink an allocated block without fixing its neighbours (tiling gap).
  static void shrink_allocated_block(FreeListAllocator& a) {
    for (std::uint32_t i = a.head_; i != kNil; i = a.nodes_[i].next) {
      if (!a.nodes_[i].allocated || a.nodes_[i].size < 2 * a.alignment_) {
        continue;
      }
      a.nodes_[i].size -= a.alignment_;
      a.allocated_bytes_ -= a.alignment_;
      return;
    }
    FAIL() << "no allocated block large enough to shrink";
  }

  static void drift_allocated_bytes(FreeListAllocator& a) {
    a.allocated_bytes_ += a.alignment_;
  }

  static void clear_cookie(FreeListAllocator& a, std::size_t offset) {
    a.nodes_[a.index_.at(offset)].cookie = nullptr;
  }
};

}  // namespace ca::mem

namespace ca::dm {

// Same idiom at the data-manager level: a friend of DataManager (and of
// Object/Region) that hands tests direct access to the in-flight transfer
// registry and the pin/primary state, so the dm.inflight and dm.pin
// invariants can be violated deliberately.  Every injector has a restore
// counterpart (or returns the previous value) so tests can put the manager
// back into a consistent state before teardown.
struct DataManagerTestPeer {
  static std::vector<DataManager::InflightTransfer>& inflight(
      DataManager& dm) {
    return dm.inflight_;
  }

  static void set_pin(Object& object, int count) {
    object.pin_count_.store(count);
  }

  /// Point the object's primary somewhere else (a bogus or freed region);
  /// returns the previous primary for restoration.
  static Region* swap_primary(Object& object, Region* bogus) {
    Region* prev = object.primary_;
    object.primary_ = bogus;
    return prev;
  }

  /// Corrupt a region's parent back-pointer; returns the previous parent.
  static Object* swap_region_parent(Region& region, Object* bogus) {
    Object* prev = region.parent_;
    region.parent_ = bogus;
    return prev;
  }

  /// Pretend device `dev` is mid-compaction (-1 to clear).
  static void set_defragmenting(DataManager& dm, int dev) {
    dm.defragmenting_.store(dev, std::memory_order_relaxed);
  }

  /// Skew tenant `t`'s resident-byte counter on `dev` by `delta` without
  /// touching any region -- the accounting drift dm.tenant.resident exists
  /// to catch (a lost rollback or double charge would look exactly like
  /// this).  Signed so tests can restore the counter afterwards.
  static void skew_tenant_resident(DataManager& dm, TenantId t,
                                   sim::DeviceId dev, std::ptrdiff_t delta) {
    auto& counter = dm.tenants_[t.value].resident[dev.value];
    if (delta >= 0) {
      counter.fetch_add(static_cast<std::size_t>(delta),
                        std::memory_order_relaxed);
    } else {
      counter.fetch_sub(static_cast<std::size_t>(-delta),
                        std::memory_order_relaxed);
    }
  }

  /// Drop the quota below what is already resident, bypassing the
  /// admission check -- the overrun state dm.tenant.quota exists to catch
  /// (a racy quota write or a missed reserve would leave exactly this).
  static void force_tenant_quota(DataManager& dm, TenantId t,
                                 sim::DeviceId dev, std::size_t bytes) {
    dm.tenants_[t.value].quota[dev.value].store(bytes,
                                                std::memory_order_relaxed);
  }
};

}  // namespace ca::dm

namespace ca::mem {
namespace {

constexpr std::size_t kHeap = 64 * util::KiB;

class AllocatorAuditFixture : public ::testing::Test {
 protected:
  AllocatorAuditFixture() : alloc_(kHeap) {
    // A representative heap: live blocks with free holes between them.
    a_ = *alloc_.allocate(4096);
    b_ = *alloc_.allocate(8192);
    c_ = *alloc_.allocate(1024);
    d_ = *alloc_.allocate(2048);
    alloc_.free(b_);
  }

  FreeListAllocator alloc_;
  std::size_t a_ = 0, b_ = 0, c_ = 0, d_ = 0;
};

TEST_F(AllocatorAuditFixture, CleanHeapAuditsClean) {
  const auto report = audit::verify(alloc_);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_F(AllocatorAuditFixture, DroppedFreeIndexEntryIsNamed) {
  AllocatorTestPeer::drop_free_index_entry(alloc_);
  const auto report = audit::verify(alloc_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has("alloc.free-index")) << report.to_string();
}

TEST_F(AllocatorAuditFixture, ForgedFreeIndexEntryIsNamed) {
  AllocatorTestPeer::forge_free_index_entry(alloc_, 4096, a_);
  const auto report = audit::verify(alloc_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has("alloc.free-index")) << report.to_string();
}

TEST_F(AllocatorAuditFixture, MissedCoalesceIsNamed) {
  AllocatorTestPeer::split_free_block(alloc_);
  const auto report = audit::verify(alloc_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has("alloc.coalesced")) << report.to_string();
}

TEST_F(AllocatorAuditFixture, TilingGapIsNamed) {
  AllocatorTestPeer::shrink_allocated_block(alloc_);
  const auto report = audit::verify(alloc_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has("alloc.tiling")) << report.to_string();
}

TEST_F(AllocatorAuditFixture, CounterDriftIsNamed) {
  AllocatorTestPeer::drift_allocated_bytes(alloc_);
  const auto report = audit::verify(alloc_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has("alloc.accounting")) << report.to_string();
}

// --- binned-heap invariants (red-before/green-after) ------------------------

TEST_F(AllocatorAuditFixture, UnbinnedFreeBlockIsNamed) {
  ASSERT_TRUE(audit::verify(alloc_).ok());  // green before corruption
  AllocatorTestPeer::drop_free_index_entry(alloc_);
  const auto report = audit::verify(alloc_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has("alloc.bin-membership")) << report.to_string();
}

TEST_F(AllocatorAuditFixture, MisfiledFreeBlockIsNamed) {
  ASSERT_TRUE(audit::verify(alloc_).ok());
  AllocatorTestPeer::misfile_free_block(alloc_);
  const auto report = audit::verify(alloc_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has("alloc.bin-membership")) << report.to_string();
}

TEST_F(AllocatorAuditFixture, ForgedBinEntryIsNamedAsMembership) {
  ASSERT_TRUE(audit::verify(alloc_).ok());
  AllocatorTestPeer::forge_free_index_entry(alloc_, 4096, a_);
  const auto report = audit::verify(alloc_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has("alloc.bin-membership")) << report.to_string();
}

TEST_F(AllocatorAuditFixture, OutOfOrderBinIsNamed) {
  // Two free blocks of the same size land in one exact bin: allocate five
  // same-size blocks and free two non-adjacent ones.
  std::size_t off[5];
  for (auto& o : off) o = *alloc_.allocate(1024);
  alloc_.free(off[1]);
  alloc_.free(off[3]);
  ASSERT_TRUE(audit::verify(alloc_).ok());
  AllocatorTestPeer::reorder_bin_entries(alloc_);
  const auto report = audit::verify(alloc_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has("alloc.bin-order")) << report.to_string();
}

TEST_F(AllocatorAuditFixture, ClearedBinBitmapBitIsNamed) {
  ASSERT_TRUE(audit::verify(alloc_).ok());
  AllocatorTestPeer::clear_occupied_bin_bit(alloc_);
  const auto report = audit::verify(alloc_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has("alloc.bin-bitmap")) << report.to_string();
}

TEST_F(AllocatorAuditFixture, StrayBinBitmapBitIsNamed) {
  ASSERT_TRUE(audit::verify(alloc_).ok());
  AllocatorTestPeer::set_stray_bin_bit(alloc_);
  const auto report = audit::verify(alloc_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has("alloc.bin-bitmap")) << report.to_string();
}

TEST_F(AllocatorAuditFixture, TornNeighbourLinkIsNamed) {
  ASSERT_TRUE(audit::verify(alloc_).ok());
  AllocatorTestPeer::corrupt_prev_link(alloc_);
  const auto report = audit::verify(alloc_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has("alloc.boundary-tags")) << report.to_string();
}

TEST_F(AllocatorAuditFixture, DroppedStartBitIsNamed) {
  ASSERT_TRUE(audit::verify(alloc_).ok());
  AllocatorTestPeer::clear_start_bit_of_block(alloc_);
  const auto report = audit::verify(alloc_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has("alloc.boundary-tags")) << report.to_string();
}

TEST_F(AllocatorAuditFixture, ReportListsEveryViolationNotJustTheFirst) {
  AllocatorTestPeer::drop_free_index_entry(alloc_);
  AllocatorTestPeer::drift_allocated_bytes(alloc_);
  const auto report = audit::verify(alloc_);
  EXPECT_GE(report.violations().size(), 2u);
  EXPECT_TRUE(report.has("alloc.free-index"));
  EXPECT_TRUE(report.has("alloc.accounting"));
}

// --- data-manager level -----------------------------------------------------

class DmAuditFixture : public ::testing::Test {
 protected:
  DmAuditFixture()
      : platform_(sim::Platform::cascade_lake_scaled(1 * util::MiB,
                                                     4 * util::MiB)),
        dm_(platform_, clock_, counters_) {}

  sim::Platform platform_;
  sim::Clock clock_;
  telemetry::TrafficCounters counters_;
  dm::DataManager dm_;
};

TEST_F(DmAuditFixture, FreshManagerAuditsClean) {
  const auto report = audit::verify(dm_);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_F(DmAuditFixture, PopulatedManagerAuditsClean) {
  dm::Object* obj = dm_.create_object(4096, "x");
  dm::Region* slow = dm_.allocate(sim::kSlow, 4096);
  ASSERT_NE(slow, nullptr);
  dm_.setprimary(*obj, *slow);
  dm::Region* fast = dm_.allocate(sim::kFast, 4096);
  ASSERT_NE(fast, nullptr);
  dm_.link(*slow, *fast);
  dm_.copyto(*fast, *slow);
  dm_.setprimary(*obj, *fast);
  dm_.markdirty(*fast);
  const auto report = audit::verify(dm_);
  EXPECT_TRUE(report.ok()) << report.to_string();
  dm_.destroy_object(obj);
}

TEST_F(DmAuditFixture, ClearedCookieIsNamed) {
  dm::Region* r = dm_.allocate(sim::kFast, 4096);
  ASSERT_NE(r, nullptr);
  auto& alloc = const_cast<FreeListAllocator&>(dm_.allocator(sim::kFast));
  AllocatorTestPeer::clear_cookie(alloc, r->offset());
  const auto report = audit::verify(dm_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has("dm.block-cookie")) << report.to_string();
  // The same block no longer round-trips from the region side either.
  EXPECT_TRUE(report.has("dm.region-roundtrip")) << report.to_string();
}

TEST_F(DmAuditFixture, TwoDirtySiblingsAreNamed) {
  dm::Object* obj = dm_.create_object(4096);
  dm::Region* slow = dm_.allocate(sim::kSlow, 4096);
  dm_.setprimary(*obj, *slow);
  dm::Region* fast = dm_.allocate(sim::kFast, 4096);
  dm_.link(*slow, *fast);
  dm_.copyto(*fast, *slow);
  // Divergence: both copies claim to have been modified.
  dm_.markdirty(*slow);
  dm_.markdirty(*fast);
  const auto report = audit::verify(dm_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has("dm.dirty-siblings")) << report.to_string();
  dm_.destroy_object(obj);
}

TEST_F(DmAuditFixture, DirtyNonPrimarySiblingIsNamed) {
  dm::Object* obj = dm_.create_object(4096);
  dm::Region* slow = dm_.allocate(sim::kSlow, 4096);
  dm_.setprimary(*obj, *slow);
  dm::Region* fast = dm_.allocate(sim::kFast, 4096);
  dm_.link(*slow, *fast);
  dm_.copyto(*fast, *slow);
  dm_.markdirty(*fast);  // fast is not the primary
  const auto report = audit::verify(dm_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has("dm.dirty-siblings")) << report.to_string();
  dm_.destroy_object(obj);
}

TEST_F(DmAuditFixture, PinnedObjectWithoutPrimaryIsNamed) {
  dm::Object* obj = dm_.create_object(4096);
  dm_.pin(*obj);
  const auto report = audit::verify(dm_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has("dm.pin")) << report.to_string();
  dm_.unpin(*obj);
  dm_.destroy_object(obj);
}

TEST_F(DmAuditFixture, InflightTransferAuditsClean) {
  dm::Region* src = dm_.allocate(sim::kSlow, 64 * util::KiB);
  dm::Region* dst = dm_.allocate(sim::kFast, 64 * util::KiB);
  dm_.copyto_async(*dst, *src);
  ASSERT_EQ(dm_.inflight_transfers().size(), 1u);
  const auto report = audit::verify(dm_);
  EXPECT_TRUE(report.ok()) << report.to_string();
  dm_.free(src);
  dm_.free(dst);
}

TEST_F(DmAuditFixture, InflightTransferToDeadRegionIsNamed) {
  dm::Region* src = dm_.allocate(sim::kSlow, 64 * util::KiB);
  dm::Region* dst = dm_.allocate(sim::kFast, 64 * util::KiB);
  dm_.copyto_async(*dst, *src);
  auto& inflight = dm::DataManagerTestPeer::inflight(dm_);
  ASSERT_EQ(inflight.size(), 1u);
  // Corruption: the registry keeps pointing at a Region the manager no
  // longer owns -- the bug class the registry scrubbing in free() prevents.
  dm::Region dead;
  dm::Region* saved = inflight[0].dst;
  inflight[0].dst = &dead;
  const auto report = audit::verify(dm_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has("dm.inflight")) << report.to_string();
  inflight[0].dst = saved;  // restore before teardown joins/frees
  dm_.free(src);
  dm_.free(dst);
}

TEST_F(DmAuditFixture, InflightEntryWithoutHandleIsNamed) {
  dm::Region* src = dm_.allocate(sim::kSlow, 64 * util::KiB);
  dm::Region* dst = dm_.allocate(sim::kFast, 64 * util::KiB);
  dm_.copyto_async(*dst, *src);
  auto& inflight = dm::DataManagerTestPeer::inflight(dm_);
  ASSERT_EQ(inflight.size(), 1u);
  dm_.engine().drain();  // the real copy must finish before we drop the handle
  mem::Transfer saved = inflight[0].transfer;
  inflight[0].transfer = mem::Transfer{};
  const auto report = audit::verify(dm_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has("dm.inflight")) << report.to_string();
  inflight[0].transfer = saved;
  dm_.free(src);
  dm_.free(dst);
}

// --- dm.pin invariants (red-before/green-after) -----------------------------

TEST_F(DmAuditFixture, NegativePinCountIsNamed) {
  dm::Object* obj = dm_.create_object(4096, "neg");
  dm::Region* r = dm_.allocate(sim::kFast, 4096);
  dm_.setprimary(*obj, *r);
  ASSERT_TRUE(audit::verify(dm_).ok());  // green before corruption
  dm::DataManagerTestPeer::set_pin(*obj, -1);
  const auto report = audit::verify(dm_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has("dm.pin")) << report.to_string();
  EXPECT_NE(report.to_string().find("negative pin count"), std::string::npos);
  dm::DataManagerTestPeer::set_pin(*obj, 0);
  EXPECT_TRUE(audit::verify(dm_).ok());  // green after restore
  dm_.destroy_object(obj);
}

TEST_F(DmAuditFixture, OrphanedPinnedPrimaryIsNamed) {
  dm::Object* obj = dm_.create_object(4096, "orphaned");
  dm::Region* r = dm_.allocate(sim::kFast, 4096);
  dm_.setprimary(*obj, *r);
  dm_.pin(*obj);
  ASSERT_TRUE(audit::verify(dm_).ok());
  // Corruption: the pinned object's primary points at storage the manager
  // does not own -- the kernel would dereference a dangling pointer.
  dm::Region dead;
  dm::Region* saved = dm::DataManagerTestPeer::swap_primary(*obj, &dead);
  const auto report = audit::verify(dm_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has("dm.pin")) << report.to_string();
  EXPECT_NE(report.to_string().find("orphaned"), std::string::npos);
  dm::DataManagerTestPeer::swap_primary(*obj, saved);
  EXPECT_TRUE(audit::verify(dm_).ok());
  dm_.unpin(*obj);
  dm_.destroy_object(obj);
}

TEST_F(DmAuditFixture, PinnedPrimaryParentMismatchIsNamed) {
  dm::Object* obj = dm_.create_object(4096, "reparented");
  dm::Region* r = dm_.allocate(sim::kFast, 4096);
  dm_.setprimary(*obj, *r);
  dm_.pin(*obj);
  ASSERT_TRUE(audit::verify(dm_).ok());
  dm::Object* other = dm_.create_object(4096, "other");
  dm::Object* saved = dm::DataManagerTestPeer::swap_region_parent(*r, other);
  const auto report = audit::verify(dm_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has("dm.pin")) << report.to_string();
  EXPECT_NE(report.to_string().find("back-pointer"), std::string::npos);
  dm::DataManagerTestPeer::swap_region_parent(*r, saved);
  EXPECT_TRUE(audit::verify(dm_).ok());
  dm_.unpin(*obj);
  dm_.destroy_object(other);
  dm_.destroy_object(obj);
}

TEST_F(DmAuditFixture, PinnedObjectOnDefragmentingDeviceIsNamed) {
  dm::Object* obj = dm_.create_object(4096, "compacting");
  dm::Region* r = dm_.allocate(sim::kFast, 4096);
  dm_.setprimary(*obj, *r);
  dm_.pin(*obj);
  ASSERT_TRUE(audit::verify(dm_).ok());
  // Corruption: compaction is (claimed to be) running on the device this
  // pinned object lives on -- its kernel-held pointer is being memmoved.
  dm::DataManagerTestPeer::set_defragmenting(
      dm_, static_cast<int>(sim::kFast.value));
  const auto report = audit::verify(dm_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has("dm.pin")) << report.to_string();
  EXPECT_NE(report.to_string().find("during defragment"), std::string::npos);
  // A pinned object on the OTHER device is fine while kFast compacts.
  dm::DataManagerTestPeer::set_defragmenting(
      dm_, static_cast<int>(sim::kSlow.value));
  EXPECT_TRUE(audit::verify(dm_).ok());
  dm::DataManagerTestPeer::set_defragmenting(dm_, -1);
  EXPECT_TRUE(audit::verify(dm_).ok());
  dm_.unpin(*obj);
  dm_.destroy_object(obj);
}

// --- dm.tenant.* invariants -------------------------------------------------

TEST_F(DmAuditFixture, SkewedTenantResidentIsNamed) {
  const dm::TenantId t = dm_.register_tenant("audited");
  dm::Region* r = dm_.allocate(sim::kFast, 4096, t);
  ASSERT_NE(r, nullptr);
  ASSERT_TRUE(audit::verify(dm_).ok());
  // Corruption: the counter drifts from the live-region sum, as a lost
  // quota rollback or a double charge would leave it.
  dm::DataManagerTestPeer::skew_tenant_resident(dm_, t, sim::kFast, 4096);
  const auto report = audit::verify(dm_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has("dm.tenant.resident")) << report.to_string();
  // Restored, the books balance again.
  dm::DataManagerTestPeer::skew_tenant_resident(dm_, t, sim::kFast, -4096);
  EXPECT_TRUE(audit::verify(dm_).ok());
  dm_.free(r);
  EXPECT_TRUE(audit::verify(dm_).ok());
}

TEST_F(DmAuditFixture, UnderchargedTenantResidentIsNamed) {
  const dm::TenantId t = dm_.register_tenant("undercharged");
  dm::Region* r = dm_.allocate(sim::kFast, 4096, t);
  ASSERT_NE(r, nullptr);
  // The opposite drift: bytes resident on the device that the tenant's
  // counter does not account for (a missed charge).
  dm::DataManagerTestPeer::skew_tenant_resident(dm_, t, sim::kFast, -4096);
  const auto report = audit::verify(dm_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has("dm.tenant.resident")) << report.to_string();
  dm::DataManagerTestPeer::skew_tenant_resident(dm_, t, sim::kFast, 4096);
  EXPECT_TRUE(audit::verify(dm_).ok());
  dm_.free(r);
}

TEST_F(DmAuditFixture, TenantQuotaOverrunIsNamed) {
  const dm::TenantId t = dm_.register_tenant("capped");
  dm::Region* r = dm_.allocate(sim::kFast, 8192, t);
  ASSERT_NE(r, nullptr);
  // The sanctioned setter refuses a quota below current residency...
  EXPECT_THROW(dm_.set_tenant_quota(t, sim::kFast, 4096), InternalError);
  EXPECT_TRUE(audit::verify(dm_).ok());
  // ...so bypass it: the overrun state a racy quota write or a missed
  // admission reserve would leave behind.
  dm::DataManagerTestPeer::force_tenant_quota(dm_, t, sim::kFast, 4096);
  const auto report = audit::verify(dm_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has("dm.tenant.quota")) << report.to_string();
  dm::DataManagerTestPeer::force_tenant_quota(dm_, t, sim::kFast, 0);
  EXPECT_TRUE(audit::verify(dm_).ok());
  dm_.free(r);
}

TEST_F(DmAuditFixture, QuotaDenialLeavesBooksBalanced) {
  const dm::TenantId t = dm_.register_tenant("denied");
  dm_.set_tenant_quota(t, sim::kFast, 8192);
  dm::Region* r = dm_.allocate(sim::kFast, 8192, t);
  ASSERT_NE(r, nullptr);
  // Over quota: refused, counted, and -- the audit point -- the reserve is
  // rolled back so the accounting still matches the live regions.
  EXPECT_EQ(dm_.allocate(sim::kFast, 4096, t), nullptr);
  EXPECT_EQ(dm_.tenant_stats(t).quota_denials, 1u);
  EXPECT_TRUE(audit::verify(dm_).ok());
  dm_.free(r);
  EXPECT_TRUE(audit::verify(dm_).ok());
}

#if defined(CA_PTRPROV_ENABLED)

// --- prov.* invariants (need the ptrprov runtime half) ----------------------

TEST_F(DmAuditFixture, StaleSpanAfterRelocationIsNamed) {
  ptrprov::reset_for_testing();
  dm::Object* hole = dm_.create_object(64 * util::KiB, "hole");
  dm_.setprimary(*hole, *dm_.allocate(sim::kFast, 64 * util::KiB));
  dm::Object* moved = dm_.create_object(64 * util::KiB, "moved");
  dm_.setprimary(*moved, *dm_.allocate(sim::kFast, 64 * util::KiB));

  dm::PinnedSpan span = dm_.access(*moved);
  ASSERT_TRUE(audit::verify(dm_).ok());  // live span, intact pin: green
  dm_.destroy_object(hole);
  dm::DataManagerTestPeer::set_pin(*moved, 0);  // the staged bug
  dm_.defragment(sim::kFast);                   // slides `moved` down
  dm::DataManagerTestPeer::set_pin(*moved, 1);

  const auto report = audit::verify(dm_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has("prov.stale")) << report.to_string();
  EXPECT_NE(report.to_string().find("relocated by defragment"),
            std::string::npos);

  span.reset();  // span gone: the audit is green again
  EXPECT_TRUE(audit::verify(dm_).ok());
  dm_.destroy_object(moved);
}

TEST_F(DmAuditFixture, SpanOnFreedRegionIsNamed) {
  ptrprov::reset_for_testing();
  dm::Object* obj = dm_.create_object(64 * util::KiB, "freed");
  dm::Region* r = dm_.allocate(sim::kFast, 64 * util::KiB);
  dm_.setprimary(*obj, *r);

  dm::PinnedSpan span = dm_.access(*obj);
  ASSERT_TRUE(audit::verify(dm_).ok());
  dm::DataManagerTestPeer::set_pin(*obj, 0);  // the staged bug
  dm_.free(r);
  const auto report = audit::verify(dm_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has("prov.stale")) << report.to_string();
  EXPECT_NE(report.to_string().find("region freed by free"),
            std::string::npos);

  dm::DataManagerTestPeer::set_pin(*obj, 1);  // so ~PinnedSpan is sane
  span.reset();
  EXPECT_TRUE(audit::verify(dm_).ok());
  dm_.destroy_object(obj);
}

TEST_F(DmAuditFixture, UnpinnedObjectWithLiveSpanIsNamed) {
  ptrprov::reset_for_testing();
  dm::Object* obj = dm_.create_object(64 * util::KiB, "dropped");
  dm_.setprimary(*obj, *dm_.allocate(sim::kFast, 64 * util::KiB));

  dm::PinnedSpan span = dm_.access(*obj);
  ASSERT_TRUE(audit::verify(dm_).ok());
  dm::DataManagerTestPeer::set_pin(*obj, 0);  // pin dropped under the span
  const auto report = audit::verify(dm_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has("prov.unpinned")) << report.to_string();

  dm::DataManagerTestPeer::set_pin(*obj, 1);
  EXPECT_TRUE(audit::verify(dm_).ok());
  span.reset();
  dm_.destroy_object(obj);
}

#endif  // CA_PTRPROV_ENABLED

TEST_F(DmAuditFixture, ScopedAbortHookInstallsAndRemovesTheHook) {
  EXPECT_EQ(dm::audit_hook(), nullptr);
  {
    audit::ScopedAbortHook hook;
    EXPECT_NE(dm::audit_hook(), nullptr);
    // Exercise mutation boundaries with the hook installed: on a healthy
    // manager this must be a no-op regardless of whether the dm library was
    // compiled with CA_AUDIT_ENABLED.
    dm::Object* obj = dm_.create_object(1024);
    dm::Region* r = dm_.allocate(sim::kFast, 1024);
    dm_.setprimary(*obj, *r);
    dm_.destroy_object(obj);
  }
  EXPECT_EQ(dm::audit_hook(), nullptr);
}

}  // namespace
}  // namespace ca::mem
