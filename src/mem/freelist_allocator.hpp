// Offset-space heap allocator for one device arena.
//
// Design requirements taken from the paper's data manager (§III-C):
//   * allocate / free variable-sized regions from a preallocated heap;
//   * iterate live blocks in *address order*, which `evictfrom` needs to
//     reclaim a contiguous window of fast memory by evicting whatever
//     objects currently occupy it;
//   * attach an owner cookie to each allocation so a block found during an
//     address-order walk can be mapped back to the Region that owns it
//     (the DM.parent direction);
//   * support compaction ("CachedArrays inherently supports object
//     reallocation which mitigates fragmentation").
//
// The allocator works purely in offset space (no memory is touched), which
// keeps it independently testable and lets the data manager combine it with
// any Arena.
//
// Internals: size-segregated binned free lists.
//   * The heap tiling lives in a slab of index-linked nodes.  Each node's
//     address-order prev/next links are the offset-space analogue of
//     boundary tags: free() reaches both neighbours in O(1), with no
//     ordered-map walk.
//   * An offset -> node hash map resolves free()/cookie lookups in O(1).
//   * Free blocks are filed into size-class bins: one exact bin per
//     alignment multiple up to kExactBins units (the hot DNN tensor
//     classes -- small activations, biases, batchnorm parameters), then
//     four sub-bins per power-of-two doubling above that.
//   * A bin-occupancy bitmap makes allocate() a find-first-set + pop.
//   * A block-start bitmap (one bit per alignment unit of the heap)
//     answers the predecessor query `for_blocks_from` needs.
//
// Placement is first-fit, bit-identical to the pre-binning allocator
// (mem::ReferenceAllocator, kept as the differential-fuzz oracle): the
// lowest-address free block that fits.  First-fit matches the address-order
// walk of `evictfrom`.  To make that exact with bins, each bin's list is
// kept address-ordered; a fitting candidate from the request's home bin
// then competes only against the *heads* of the occupied higher bins (every
// block there fits by construction), so the global scan is
// O(home-bin prefix + occupied bins), O(1) amortized on the exact classes.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "telemetry/counters.hpp"
#include "util/align.hpp"
#include "util/cache_align.hpp"

namespace ca::mem {

class FreeListAllocator {
 public:
  /// Read-only view of one block, in the tiling of the heap.
  struct BlockView {
    std::size_t offset = 0;
    std::size_t size = 0;
    bool allocated = false;
    void* cookie = nullptr;
  };

  struct Stats {
    std::size_t capacity = 0;
    std::size_t allocated_bytes = 0;
    std::size_t free_bytes = 0;
    std::size_t largest_free_block = 0;
    std::size_t allocated_blocks = 0;
    std::size_t free_blocks = 0;
    std::uint64_t total_allocs = 0;
    std::uint64_t total_frees = 0;
    std::uint64_t failed_allocs = 0;

    // Binned-heap telemetry (all zero on the reference allocator).
    std::uint64_t splits = 0;           ///< allocations that split a block
    std::uint64_t coalesces = 0;        ///< neighbour merges inside free()
    std::uint64_t bin_exact_hits = 0;   ///< allocs served from the home bin
    std::uint64_t bin_spill_allocs = 0; ///< allocs served from a higher bin

    /// External fragmentation in [0,1]: 1 - largest_free / free_bytes.
    [[nodiscard]] double fragmentation() const noexcept {
      if (free_bytes == 0) return 0.0;
      return 1.0 - static_cast<double>(largest_free_block) /
                       static_cast<double>(free_bytes);
    }

    /// The subset DataManager::DeviceStats carries (counters.hpp).
    [[nodiscard]] telemetry::AllocatorCounters counters() const noexcept {
      telemetry::AllocatorCounters c;
      c.total_allocs = total_allocs;
      c.total_frees = total_frees;
      c.failed_allocs = failed_allocs;
      c.splits = splits;
      c.coalesces = coalesces;
      c.bin_exact_hits = bin_exact_hits;
      c.bin_spill_allocs = bin_spill_allocs;
      c.free_blocks = free_blocks;
      c.largest_free_block = largest_free_block;
      c.fragmentation = fragmentation();
      return c;
    }
  };

  /// `capacity` bytes of heap; all blocks are multiples of `alignment`
  /// (power of two) so every returned offset is aligned.
  explicit FreeListAllocator(std::size_t capacity,
                             std::size_t alignment = 64);

  FreeListAllocator(const FreeListAllocator&) = delete;
  FreeListAllocator& operator=(const FreeListAllocator&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t alignment() const noexcept { return alignment_; }

  /// Allocate `size` bytes (rounded up to the alignment).  Returns the
  /// block offset, or nullopt if no free block fits.  Never throws for
  /// ordinary exhaustion -- the policy layer probes the fast tier and
  /// handles failure by evicting.
  [[nodiscard]] std::optional<std::size_t> allocate(std::size_t size);

  /// Free the block at `offset` (must be currently allocated).  Adjacent
  /// free blocks are coalesced immediately.
  void free(std::size_t offset);

  /// True iff `offset` is the start of a live allocation.
  [[nodiscard]] bool is_allocated(std::size_t offset) const;

  /// Usable size of the allocated block at `offset`.
  [[nodiscard]] std::size_t block_size(std::size_t offset) const;

  /// Attach/read an owner cookie on an allocated block.
  void set_cookie(std::size_t offset, void* cookie);
  [[nodiscard]] void* cookie(std::size_t offset) const;

  /// All blocks (allocated and free) in address order.
  [[nodiscard]] std::vector<BlockView> blocks() const;

  /// Visit blocks in address order starting with the block containing (or
  /// first after) `from`.  `fn` returns false to stop the walk.
  void for_blocks_from(std::size_t from,
                       const std::function<bool(const BlockView&)>& fn) const;

  /// Offset of the first allocated block at or after `from`, if any.
  [[nodiscard]] std::optional<std::size_t> first_allocated_from(
      std::size_t from) const;

  [[nodiscard]] Stats stats() const;

  /// Verify structural invariants (blocks tile [0, capacity) exactly, no
  /// two adjacent free blocks, bins/bitmaps/links consistent).  Throws
  /// InternalError on violation.  Used by the property-based test suite.
  /// `audit::verify` is the non-throwing counterpart that returns a
  /// structured report.
  void check_invariants() const;

  /// The (size, offset) entries of the free-block bins, sorted by
  /// (size, offset).  Read-only view for the ca::audit library, which
  /// cross-checks the bins against the address-ordered tiling.
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>>
  free_index_snapshot() const;

  // --- bin geometry (static, so audit/tests can recompute size classes) ---

  /// One exact bin per block size of 1..kExactBins alignment units.
  static constexpr std::size_t kExactBins = 64;
  /// Sub-bins per power-of-two doubling above the exact range.
  static constexpr std::size_t kSubBins = 4;
  /// log2(kExactBins): the first power-of-two range above the exact bins.
  static constexpr std::size_t kExactShift = 6;
  /// Total number of size-class bins (doublings 2^6 .. 2^63 inclusive).
  static constexpr std::size_t kBinCount =
      kExactBins + (63 - kExactShift + 1) * kSubBins;

  [[nodiscard]] static constexpr std::size_t bin_count() noexcept {
    return kBinCount;
  }

  /// The bin a free block of `size` bytes files under (this allocator's
  /// alignment).  Monotone in size; bins partition the size space.
  [[nodiscard]] std::size_t bin_of(std::size_t size) const noexcept {
    return bin_for_units(std::max<std::size_t>(1, size >> shift_));
  }

  /// Smallest block size (bytes) that files under bin `b`.
  [[nodiscard]] std::size_t bin_min_bytes(std::size_t b) const noexcept;

  // --- audit views over the binned internals ------------------------------

  /// One (offset, size) entry of a bin's free list.
  struct BinEntry {
    std::size_t offset = 0;
    std::size_t size = 0;
  };

  /// One occupied bin, entries in list order (head to tail).
  struct BinView {
    std::size_t bin = 0;
    std::size_t min_bytes = 0;  ///< smallest size this bin may hold
    std::vector<BinEntry> entries;
  };

  /// All occupied bins, ascending bin index.
  [[nodiscard]] std::vector<BinView> bin_snapshot() const;

  /// The bin-occupancy bitmap words (bit b of word w covers bin 64*w+b).
  [[nodiscard]] std::vector<std::uint64_t> bin_bitmap_words() const;

  /// The boundary-tag view of one block, derived from the offset hash map
  /// and the per-node neighbour links -- deliberately NOT from the
  /// address-order walk, so a corrupted link is visible as a disagreement
  /// between the two views.
  struct BoundaryTag {
    std::size_t offset = 0;
    std::size_t size = 0;
    bool allocated = false;
    bool start_bit = false;  ///< block start marked in the start bitmap
    std::optional<std::size_t> prev_offset;  ///< address-order neighbours
    std::optional<std::size_t> next_offset;
  };

  /// Every block's boundary tags, sorted by offset.
  [[nodiscard]] std::vector<BoundaryTag> boundary_snapshot() const;

  /// Number of set bits in the block-start bitmap (must equal block count).
  [[nodiscard]] std::size_t start_bit_count() const noexcept;

 private:
  // Test-only seam: lets the audit test suite corrupt internal state to
  // prove that audit::verify detects each class of violation.  Defined only
  // in tests/audit/; never in the library.
  friend struct AllocatorTestPeer;

  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::uint16_t kNoBin = 0xFFFFu;
  static constexpr std::size_t kBinWords = (kBinCount + 63) / 64;

  /// One block of the tiling.  prev/next are address-order neighbour links
  /// (the boundary tags); bin_prev/bin_next thread the block through its
  /// size-class free list when free.
  struct Node {
    std::size_t offset = 0;
    std::size_t size = 0;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    std::uint32_t bin_prev = kNil;
    std::uint32_t bin_next = kNil;
    std::uint16_t bin = kNoBin;  ///< kNoBin while allocated
    bool allocated = false;
    void* cookie = nullptr;
  };

  struct BinList {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  [[nodiscard]] static constexpr std::size_t bin_for_units(
      std::size_t units) noexcept {
    if (units <= kExactBins) return units - 1;
    const auto k = static_cast<std::size_t>(std::bit_width(units)) - 1;
    const std::size_t sub = (units >> (k - 2)) & (kSubBins - 1);
    return kExactBins + (k - kExactShift) * kSubBins + sub;
  }

  [[nodiscard]] std::uint32_t new_node();
  void recycle_node(std::uint32_t i);

  void bin_link(std::uint32_t i);
  void bin_unlink(std::uint32_t i);
  void set_bin_bit(std::size_t b) noexcept;
  void clear_bin_bit(std::size_t b) noexcept;
  /// Lowest occupied bin with index > b, or bin_count() if none.
  [[nodiscard]] std::size_t next_occupied_bin(std::size_t b) const noexcept;

  void set_start_bit(std::size_t offset) noexcept;
  void clear_start_bit(std::size_t offset) noexcept;
  /// Node of the block whose start is the highest one at or below `pos`
  /// (an alignment-unit index).  The heap is never empty, so this always
  /// resolves (unit 0 is always a block start).
  [[nodiscard]] std::uint32_t block_at_or_before(std::size_t pos) const;

  /// The first-fit target for `size` (aligned), or kNil.  Sets `from_home` when
  /// the winner came out of the request's home bin.
  [[nodiscard]] std::uint32_t find_fit(std::size_t size,
                                       bool& from_home) const;

  std::size_t capacity_;
  std::size_t alignment_;
  std::size_t shift_;  ///< log2(alignment_)

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_slots_;  ///< recycled node indices
  std::unordered_map<std::size_t, std::uint32_t> index_;  ///< offset -> node
  std::vector<std::uint64_t> start_bits_;  ///< block-start bitmap
  std::array<BinList, kBinCount> bins_{};
  std::array<std::uint64_t, kBinWords> bin_bitmap_{};
  std::uint32_t head_ = kNil;  ///< node at offset 0

  std::size_t allocated_bytes_ = 0;
  std::size_t allocated_blocks_ = 0;
  std::size_t free_blocks_ = 0;
  // The AllocatorCounters event tallies are bumped on every alloc/free;
  // start the run on its own cache line so counter writes never ping the
  // line holding the bin bitmap / head words (telemetry snapshots and,
  // ahead, per-shard allocators packed side by side read those).
  alignas(util::kCacheLineSize) std::uint64_t total_allocs_ = 0;
  std::uint64_t total_frees_ = 0;
  std::uint64_t failed_allocs_ = 0;
  std::uint64_t splits_ = 0;
  std::uint64_t coalesces_ = 0;
  std::uint64_t bin_exact_hits_ = 0;
  std::uint64_t bin_spill_allocs_ = 0;
};

}  // namespace ca::mem
