#include "audit/audit.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#include "dm/audit_hook.hpp"
#include "dm/data_manager.hpp"
#include "dm/object.hpp"
#include "mem/freelist_allocator.hpp"
#include "ptrprov/ptrprov.hpp"
#include "util/align.hpp"

namespace ca::audit {

namespace {

std::string object_label(const dm::Object& object) {
  std::string label = "object #" + std::to_string(object.id());
  if (!object.name().empty()) label += " '" + object.name() + "'";
  return label;
}

std::string region_label(const dm::Region& region) {
  return "region dev" + std::to_string(region.device().value) + "@" +
         std::to_string(region.offset()) + "+" +
         std::to_string(region.size());
}

}  // namespace

bool AuditReport::has(std::string_view invariant) const noexcept {
  return std::any_of(
      violations_.begin(), violations_.end(),
      [invariant](const Violation& v) { return v.invariant == invariant; });
}

std::string AuditReport::to_string() const {
  std::string out;
  for (const Violation& v : violations_) {
    out += "[" + v.invariant + "] " + v.detail + "\n";
  }
  return out;
}

void AuditReport::add(std::string invariant, std::string detail) {
  violations_.push_back({std::move(invariant), std::move(detail)});
}

// --- allocator audit --------------------------------------------------------

AuditReport verify(const mem::FreeListAllocator& alloc) {
  AuditReport report;
  const auto blocks = alloc.blocks();
  const std::size_t alignment = alloc.alignment();

  // alloc.tiling / alloc.block-align / alloc.coalesced -- one address-order
  // walk establishes the tiling and gathers the ground truth for the index
  // and counter checks below.
  std::size_t expected_offset = 0;
  std::size_t walk_alloc_bytes = 0;
  std::size_t walk_alloc_blocks = 0;
  std::size_t walk_free_bytes = 0;
  std::size_t walk_largest_free = 0;
  std::vector<std::pair<std::size_t, std::size_t>> walk_free;  // (size, off)
  bool prev_free = false;
  for (const auto& b : blocks) {
    if (b.offset != expected_offset) {
      report.add("alloc.tiling",
                 "block at " + std::to_string(b.offset) + " but previous " +
                     "block ends at " + std::to_string(expected_offset) +
                     (b.offset > expected_offset ? " (gap)" : " (overlap)"));
    }
    if (b.size == 0) {
      report.add("alloc.block-align",
                 "zero-sized block at " + std::to_string(b.offset));
    }
    if (!util::is_aligned(b.offset, alignment) ||
        !util::is_aligned(b.size, alignment)) {
      report.add("alloc.block-align",
                 "block " + std::to_string(b.offset) + "+" +
                     std::to_string(b.size) + " not aligned to " +
                     std::to_string(alignment));
    }
    if (b.allocated) {
      walk_alloc_bytes += b.size;
      ++walk_alloc_blocks;
      prev_free = false;
    } else {
      if (prev_free) {
        report.add("alloc.coalesced",
                   "adjacent free blocks at " + std::to_string(b.offset) +
                       " (missed coalesce)");
      }
      walk_free_bytes += b.size;
      walk_largest_free = std::max(walk_largest_free, b.size);
      walk_free.emplace_back(b.size, b.offset);
      prev_free = true;
    }
    expected_offset = b.offset + b.size;
  }
  if (expected_offset != alloc.capacity()) {
    report.add("alloc.tiling",
               "blocks cover [0, " + std::to_string(expected_offset) +
                   ") but capacity is " + std::to_string(alloc.capacity()));
  }

  // alloc.free-index -- the (size, offset) index must agree with the
  // address-ordered map in both directions.
  auto index = alloc.free_index_snapshot();
  std::sort(walk_free.begin(), walk_free.end());
  std::sort(index.begin(), index.end());
  std::vector<std::pair<std::size_t, std::size_t>> missing, extra;
  std::set_difference(walk_free.begin(), walk_free.end(), index.begin(),
                      index.end(), std::back_inserter(missing));
  std::set_difference(index.begin(), index.end(), walk_free.begin(),
                      walk_free.end(), std::back_inserter(extra));
  for (const auto& [size, off] : missing) {
    report.add("alloc.free-index",
               "free block " + std::to_string(off) + "+" +
                   std::to_string(size) + " missing from the size index");
  }
  for (const auto& [size, off] : extra) {
    report.add("alloc.free-index",
               "index entry (" + std::to_string(size) + ", " +
                   std::to_string(off) +
                   ") does not match any free block");
  }

  // alloc.accounting -- cached counters must match the walk.
  const auto stats = alloc.stats();
  const auto expect = [&report](std::size_t got, std::size_t want,
                                const char* what) {
    if (got != want) {
      report.add("alloc.accounting",
                 std::string(what) + ": stats say " + std::to_string(got) +
                     ", walk says " + std::to_string(want));
    }
  };
  expect(stats.allocated_bytes, walk_alloc_bytes, "allocated_bytes");
  expect(stats.allocated_blocks, walk_alloc_blocks, "allocated_blocks");
  expect(stats.free_bytes, walk_free_bytes, "free_bytes");
  expect(stats.free_blocks, walk_free.size(), "free_blocks");
  expect(stats.largest_free_block, walk_largest_free, "largest_free_block");

  // alloc.bin-membership -- every free block of the walk is reachable from
  // exactly one size-class bin, and that bin is its size class; no bin
  // holds anything that is not a free block.
  const auto bins = alloc.bin_snapshot();
  std::vector<std::pair<std::size_t, std::size_t>> binned;  // (size, off)
  for (const auto& bin : bins) {
    for (const auto& e : bin.entries) {
      binned.emplace_back(e.size, e.offset);
      const std::size_t want = alloc.bin_of(e.size);
      if (bin.bin != want) {
        report.add("alloc.bin-membership",
                   "free block " + std::to_string(e.offset) + "+" +
                       std::to_string(e.size) + " filed under bin " +
                       std::to_string(bin.bin) + " but its size class is " +
                       std::to_string(want));
      }
    }
  }
  std::sort(binned.begin(), binned.end());
  for (std::size_t i = 1; i < binned.size(); ++i) {
    if (binned[i] == binned[i - 1]) {
      report.add("alloc.bin-membership",
                 "free block " + std::to_string(binned[i].second) + "+" +
                     std::to_string(binned[i].first) +
                     " reachable from more than one bin entry");
    }
  }
  std::vector<std::pair<std::size_t, std::size_t>> unbinned, stray;
  std::set_difference(walk_free.begin(), walk_free.end(), binned.begin(),
                      binned.end(), std::back_inserter(unbinned));
  std::set_difference(binned.begin(), binned.end(), walk_free.begin(),
                      walk_free.end(), std::back_inserter(stray));
  for (const auto& [size, off] : unbinned) {
    report.add("alloc.bin-membership",
               "free block " + std::to_string(off) + "+" +
                   std::to_string(size) + " not reachable from any bin");
  }
  for (const auto& [size, off] : stray) {
    report.add("alloc.bin-membership",
               "bin entry " + std::to_string(off) + "+" +
                   std::to_string(size) +
                   " does not match any free block of the tiling");
  }

  // alloc.bin-order -- each bin's list keeps the address order first-fit
  // depends on.  Out-of-order entries silently break placement parity.
  for (const auto& bin : bins) {
    for (std::size_t i = 1; i < bin.entries.size(); ++i) {
      const auto& p = bin.entries[i - 1];
      const auto& e = bin.entries[i];
      if (p.offset >= e.offset) {
        report.add("alloc.bin-order",
                   "bin " + std::to_string(bin.bin) + " entry " +
                       std::to_string(e.offset) + "+" +
                       std::to_string(e.size) + " out of order after " +
                       std::to_string(p.offset) + "+" +
                       std::to_string(p.size));
      }
    }
  }

  // alloc.bin-bitmap -- the find-first-set bitmap must mirror bin
  // occupancy in both directions: a cleared bit hides free memory from
  // allocate(); a stray set bit makes allocate() dereference an empty bin.
  const auto words = alloc.bin_bitmap_words();
  std::vector<bool> occupied(mem::FreeListAllocator::bin_count(), false);
  for (const auto& bin : bins) {
    if (!bin.entries.empty()) occupied[bin.bin] = true;
  }
  for (std::size_t b = 0; b < occupied.size(); ++b) {
    const bool bit =
        (words[b >> 6] & (std::uint64_t{1} << (b & 63))) != 0;
    if (bit && !occupied[b]) {
      report.add("alloc.bin-bitmap",
                 "bitmap marks bin " + std::to_string(b) +
                     " occupied but its list is empty");
    }
    if (!bit && occupied[b]) {
      report.add("alloc.bin-bitmap",
                 "bin " + std::to_string(b) +
                     " holds free blocks but its bitmap bit is clear");
    }
  }

  // alloc.boundary-tags -- the offset-index + neighbour-link view of every
  // block must mirror the address-order walk: same block set, and each
  // block's prev/next links name exactly its address neighbours.  A torn
  // link would send free()'s O(1) coalesce to the wrong block.
  const auto tags = alloc.boundary_snapshot();
  if (tags.size() != blocks.size()) {
    report.add("alloc.boundary-tags",
               "boundary view has " + std::to_string(tags.size()) +
                   " blocks but the walk has " +
                   std::to_string(blocks.size()));
  } else {
    for (std::size_t i = 0; i < tags.size(); ++i) {
      const auto& t = tags[i];
      const auto& b = blocks[i];
      if (t.offset != b.offset || t.size != b.size ||
          t.allocated != b.allocated) {
        report.add("alloc.boundary-tags",
                   "boundary tag " + std::to_string(t.offset) + "+" +
                       std::to_string(t.size) +
                       " disagrees with walk block " +
                       std::to_string(b.offset) + "+" +
                       std::to_string(b.size));
        continue;
      }
      if (!t.start_bit) {
        report.add("alloc.boundary-tags",
                   "block " + std::to_string(t.offset) +
                       " missing from the block-start bitmap");
      }
      const bool prev_ok =
          i == 0 ? !t.prev_offset.has_value()
                 : t.prev_offset == std::optional(blocks[i - 1].offset);
      const bool next_ok =
          i + 1 == tags.size()
              ? !t.next_offset.has_value()
              : t.next_offset == std::optional(blocks[i + 1].offset);
      if (!prev_ok || !next_ok) {
        report.add("alloc.boundary-tags",
                   "block " + std::to_string(t.offset) +
                       " neighbour links do not match the tiling");
      }
    }
  }
  if (alloc.start_bit_count() != blocks.size()) {
    report.add("alloc.boundary-tags",
               "start bitmap population " +
                   std::to_string(alloc.start_bit_count()) +
                   " does not match block count " +
                   std::to_string(blocks.size()));
  }
  return report;
}

// --- data-manager audit -----------------------------------------------------

AuditReport verify(const dm::DataManager& dm) {
  AuditReport report;
  const std::size_t devices = dm.device_count();

  // Per-device allocator audits, with details prefixed by the device.
  // Collect each device's block map for the round-trip checks below.
  std::vector<std::vector<mem::FreeListAllocator::BlockView>> dev_blocks;
  dev_blocks.reserve(devices);
  std::size_t allocated_blocks = 0;
  for (std::size_t d = 0; d < devices; ++d) {
    const auto id = sim::DeviceId{static_cast<std::uint32_t>(d)};
    const auto& alloc = dm.allocator(id);
    AuditReport sub = verify(alloc);
    for (const Violation& v : sub.violations()) {
      report.add(v.invariant, "device " + std::to_string(d) + ": " + v.detail);
    }
    dev_blocks.push_back(alloc.blocks());
    for (const auto& b : dev_blocks.back()) {
      if (!b.allocated) continue;
      ++allocated_blocks;
      // dm.block-cookie -- every live block belongs to a live region.
      const auto* region = static_cast<const dm::Region*>(b.cookie);
      if (region == nullptr) {
        report.add("dm.block-cookie",
                   "device " + std::to_string(d) + ": allocated block at " +
                       std::to_string(b.offset) + " has no owner cookie");
      } else if (!dm.owns_region(region)) {
        report.add("dm.block-cookie",
                   "device " + std::to_string(d) + ": allocated block at " +
                       std::to_string(b.offset) +
                       " points at a dead or foreign region");
      }
    }
  }

  // dm.region-roundtrip -- every live region's (device, offset, size) must
  // round-trip through the allocator walk: the block at its offset exists,
  // is allocated, is cookie-tagged back to the region, and has the
  // align-rounded size.  Together with the block count equality this makes
  // the region<->block mapping a bijection.
  std::size_t live_regions = 0;
  // Per-tenant, per-device resident-byte recomputation for dm.tenant.*
  // below (heap-aligned sizes, matching what allocate charged).
  std::array<std::array<std::size_t, dm::TenantStats::kMaxDevices>,
             dm::kMaxTenants>
      tenant_resident{};
  dm.for_each_region([&](const dm::Region& region) {
    ++live_regions;
    const std::size_t d = region.device().value;
    if (d >= devices) {
      report.add("dm.region-roundtrip",
                 region_label(region) + ": device id out of range");
      return;
    }
    if (region.tenant().value >= dm::kMaxTenants) {
      report.add("dm.tenant.resident",
                 region_label(region) + ": tenant id " +
                     std::to_string(region.tenant().value) + " out of range");
    } else if (d < dm::TenantStats::kMaxDevices) {
      tenant_resident[region.tenant().value][d] += util::align_up(
          region.size(), dm.allocator(region.device()).alignment());
    }
    const auto& blocks = dev_blocks[d];
    const auto it = std::lower_bound(
        blocks.begin(), blocks.end(), region.offset(),
        [](const mem::FreeListAllocator::BlockView& b, std::size_t off) {
          return b.offset < off;
        });
    if (it == blocks.end() || it->offset != region.offset() ||
        !it->allocated) {
      report.add("dm.region-roundtrip",
                 region_label(region) +
                     ": no allocated block starts at its offset");
      return;
    }
    if (it->cookie != &region) {
      report.add("dm.region-roundtrip",
                 region_label(region) +
                     ": backing block's cookie points elsewhere");
    }
    const std::size_t want =
        util::align_up(region.size(), dm.allocator(region.device()).alignment());
    if (it->size != want) {
      report.add("dm.region-roundtrip",
                 region_label(region) + ": backing block holds " +
                     std::to_string(it->size) + " bytes, expected " +
                     std::to_string(want));
    }
    // dm.ready-at -- an async fill completes no later than the mover's
    // horizon, and completion times never go negative.
    if (region.ready_at() < 0.0 ||
        region.ready_at() > dm.mover_busy_until()) {
      report.add("dm.ready-at",
                 region_label(region) + ": ready_at " +
                     std::to_string(region.ready_at()) +
                     " outside [0, mover_busy_until=" +
                     std::to_string(dm.mover_busy_until()) + "]");
    }
  });
  if (live_regions != allocated_blocks) {
    report.add("dm.region-roundtrip",
               std::to_string(live_regions) + " live regions but " +
                   std::to_string(allocated_blocks) +
                   " allocated heap blocks");
  }
  if (dm.mover_busy_until() < 0.0) {
    report.add("dm.ready-at", "mover_busy_until is negative");
  }

  // dm.inflight -- every registry entry points at live (never freed or
  // relocated) regions whose stored data pointers still match, and its
  // modeled completion lies within [0, mover horizon].
  for (const auto& t : dm.inflight_transfers()) {
    if (!t.transfer.valid()) {
      report.add("dm.inflight", "registry entry without a transfer handle");
      continue;
    }
    if (!dm.owns_region(t.dst)) {
      report.add("dm.inflight",
                 "in-flight transfer destination is not a live region");
    }
    if (!dm.owns_region(t.src)) {
      report.add("dm.inflight",
                 "in-flight transfer source is not a live region");
    }
    if (t.transfer.done_time() < 0.0 ||
        t.transfer.done_time() > dm.mover_busy_until()) {
      report.add("dm.inflight",
                 "in-flight transfer completes at " +
                     std::to_string(t.transfer.done_time()) +
                     ", outside [0, mover_busy_until=" +
                     std::to_string(dm.mover_busy_until()) + "]");
    }
    if (t.transfer.channel() >= dm.engine().channel_count()) {
      report.add("dm.inflight", "in-flight transfer on unknown channel " +
                                    std::to_string(t.transfer.channel()));
    }
  }

  // dm.tenant.resident -- each tenant's accounted resident bytes per device
  // must equal the heap-aligned sum of its live regions there (so the
  // per-tenant accounting partitions the device's allocated bytes exactly),
  // and dm.tenant.quota -- accounted residency never exceeds a non-zero
  // quota (the QoS knob is an admission bound, not advisory).
  for (std::size_t t = 0; t < dm::kMaxTenants; ++t) {
    const auto stats = dm.tenant_stats(dm::TenantId{
        static_cast<std::uint32_t>(t)});
    for (std::size_t d = 0;
         d < std::min<std::size_t>(devices, dm::TenantStats::kMaxDevices);
         ++d) {
      const auto id = sim::DeviceId{static_cast<std::uint32_t>(d)};
      if (stats.resident[d] != tenant_resident[t][d]) {
        report.add("dm.tenant.resident",
                   "tenant " + std::to_string(t) + " device " +
                       std::to_string(d) + ": accounts " +
                       std::to_string(stats.resident[d]) +
                       " resident bytes but its live regions hold " +
                       std::to_string(tenant_resident[t][d]));
      }
      const std::size_t quota =
          dm.tenant_quota(dm::TenantId{static_cast<std::uint32_t>(t)}, id);
      if (quota != 0 && stats.resident[d] > quota) {
        report.add("dm.tenant.quota",
                   "tenant " + std::to_string(t) + " device " +
                       std::to_string(d) + ": " +
                       std::to_string(stats.resident[d]) +
                       " resident bytes exceed the " + std::to_string(quota) +
                       "-byte quota");
      }
    }
  }

  // Object-level invariants.
  dm.for_each_object([&](const dm::Object& object) {
    const std::string label = object_label(object);
    std::size_t filed = 0;
    std::size_t dirty_count = 0;
    const dm::Region* dirty_region = nullptr;
    for (std::size_t d = 0; d < dm::Object::kMaxDevices; ++d) {
      const auto id = sim::DeviceId{static_cast<std::uint32_t>(d)};
      const dm::Region* region = object.region_on(id);
      if (region == nullptr) continue;
      ++filed;
      // dm.device-slot -- the slot, the region's own device, and the parent
      // back-pointer must agree ("at most one region per device" is implied
      // by the slot structure plus this agreement).
      if (!dm.owns_region(region)) {
        report.add("dm.device-slot",
                   label + ": slot " + std::to_string(d) +
                       " points at a dead region");
        continue;
      }
      if (region->device().value != d) {
        report.add("dm.device-slot",
                   label + ": " + region_label(*region) + " filed in slot " +
                       std::to_string(d));
      }
      if (region->parent() != &object) {
        report.add("dm.device-slot",
                   label + ": " + region_label(*region) +
                       " parent back-pointer points elsewhere");
      }
      // dm.region-size -- a linked region can hold the whole object.
      if (region->size() < object.size()) {
        report.add("dm.region-size",
                   label + " (" + std::to_string(object.size()) +
                       " bytes): " + region_label(*region) +
                       " is too small");
      }
      if (region->dirty()) {
        ++dirty_count;
        dirty_region = region;
      }
    }
    // dm.primary -- exactly one primary among the linked regions (none only
    // while the object holds no storage at all).
    const dm::Region* primary = object.primary();
    if (filed == 0) {
      if (primary != nullptr) {
        report.add("dm.primary",
                   label + ": primary set but no region is linked");
      }
    } else if (primary == nullptr) {
      report.add("dm.primary",
                 label + ": has " + std::to_string(filed) +
                     " region(s) but no primary");
    } else if (object.region_on(primary->device()) != primary) {
      report.add("dm.primary",
                 label + ": primary is not among the object's regions");
    }
    // dm.pin -- pin counts never go negative; a pinned object must have a
    // primary (the pointer a kernel is holding), that primary's storage
    // must be live with an intact back-pointer (never orphaned: the kernel
    // dereferences it), and no pinned object may hold a region on a device
    // being defragmented (compaction memmoves every live region there).
    if (object.pin_count() < 0) {
      report.add("dm.pin", label + ": negative pin count");
    }
    if (object.pinned() && primary == nullptr) {
      report.add("dm.pin", label + ": pinned but has no primary region");
    } else if (object.pinned()) {
      if (!dm.owns_region(primary)) {
        report.add("dm.pin",
                   label + ": pinned but its primary region is orphaned "
                           "(storage no longer live)");
      } else if (primary->parent() != &object) {
        report.add("dm.pin",
                   label + ": pinned primary's parent back-pointer points "
                           "elsewhere");
      }
    }
    if (object.pinned() && dm.defragmenting_device() >= 0) {
      const auto dd = sim::DeviceId{
          static_cast<std::uint32_t>(dm.defragmenting_device())};
      if (object.region_on(dd) != nullptr) {
        report.add("dm.pin",
                   label + ": pinned object holds a region on device " +
                       std::to_string(dm.defragmenting_device()) +
                       " during defragment");
      }
    }
    // dm.dirty-siblings -- at most one region of an object may be modified
    // relative to its siblings, and with siblings present the modified one
    // must be the primary (secondaries are only ever stale, never written).
    if (dirty_count > 1) {
      report.add("dm.dirty-siblings",
                 label + ": " + std::to_string(dirty_count) +
                     " dirty sibling regions (divergent copies)");
    } else if (dirty_count == 1 && filed > 1 && dirty_region != primary) {
      report.add("dm.dirty-siblings",
                 label + ": non-primary sibling " +
                     region_label(*dirty_region) + " is dirty");
    }
  });

#if defined(CA_PTRPROV_ENABLED)
  // prov.* -- every live PinnedSpan must still be backed by what it
  // recorded at acquire: its region neither relocated nor freed since
  // (prov.stale), and its owning object still pinned (prov.unpinned).
  const auto spans = ptrprov::active_spans();
  for (const auto& s : spans) {
    if (s.region_freed) {
      report.add("prov.stale",
                 "live span on '" + s.label + "' acquired at " +
                     s.acquire_site + ": region freed by " + s.mutation_op);
    } else if (s.gen_now != s.gen_at_acquire) {
      report.add("prov.stale",
                 "live span on '" + s.label + "' acquired at " +
                     s.acquire_site + " (generation " +
                     std::to_string(s.gen_at_acquire) +
                     "): region relocated by " + s.mutation_op +
                     " to generation " + std::to_string(s.gen_now));
    }
  }
  if (!spans.empty()) {
    dm.for_each_object([&](const dm::Object& object) {
      if (object.pinned()) return;
      for (const auto& s : spans) {
        if (s.object == &object) {
          report.add("prov.unpinned",
                     object_label(object) + ": live span acquired at " +
                         s.acquire_site +
                         " but the object is no longer pinned");
        }
      }
    });
  }
#endif
  return report;
}

// --- CA_AUDIT hook ----------------------------------------------------------

namespace {

void abort_on_violation(const dm::DataManager& dm) {
  const AuditReport report = verify(dm);
  if (!report.ok()) {
    std::fprintf(stderr,
                 "CA_AUDIT: data-manager invariant violations:\n%s",
                 report.to_string().c_str());
    std::abort();
  }
}

}  // namespace

ScopedAbortHook::ScopedAbortHook() { dm::set_audit_hook(&abort_on_violation); }
ScopedAbortHook::~ScopedAbortHook() { dm::set_audit_hook(nullptr); }

}  // namespace ca::audit
