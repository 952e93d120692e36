// The pre-binning heap allocator, retained verbatim as a reference oracle.
//
// This is the original map-based FreeListAllocator implementation: an
// address-ordered `std::map` of blocks with a `(size, offset)` `std::set`
// free index.  allocate() is a first-fit scan, O(free blocks); free()
// coalesces through the map.  The binned allocator
// (freelist_allocator.hpp) replaced it on the hot path but must reproduce
// its placement decisions bit for bit, so this implementation stays around
// for two consumers:
//
//   * tests/mem/allocator_differential_test.cpp drives both allocators with
//     the same seeded op stream and asserts identical offsets, stats and
//     block tilings;
//   * bench/micro_allocator replays a DNN-shaped allocation trace against
//     both and reports the old-vs-new speedup.
//
// Do not extend this class; it is frozen history, not an API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "util/align.hpp"

namespace ca::mem {

class ReferenceAllocator {
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

    /// External fragmentation in [0,1]: 1 - largest_free / free_bytes.
    [[nodiscard]] double fragmentation() const noexcept {
      if (free_bytes == 0) return 0.0;
      return 1.0 - static_cast<double>(largest_free_block) /
                       static_cast<double>(free_bytes);
    }
  };

  explicit ReferenceAllocator(std::size_t capacity,
                              std::size_t alignment = 64);

  ReferenceAllocator(const ReferenceAllocator&) = delete;
  ReferenceAllocator& operator=(const ReferenceAllocator&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t alignment() const noexcept { return alignment_; }

  [[nodiscard]] std::optional<std::size_t> allocate(std::size_t size);
  void free(std::size_t offset);

  [[nodiscard]] bool is_allocated(std::size_t offset) const;
  [[nodiscard]] std::size_t block_size(std::size_t offset) const;
  void set_cookie(std::size_t offset, void* cookie);
  [[nodiscard]] void* cookie(std::size_t offset) const;

  [[nodiscard]] std::vector<BlockView> blocks() const;
  void for_blocks_from(std::size_t from,
                       const std::function<bool(const BlockView&)>& fn) const;
  [[nodiscard]] std::optional<std::size_t> first_allocated_from(
      std::size_t from) const;

  [[nodiscard]] Stats stats() const;
  void check_invariants() const;
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>>
  free_index_snapshot() const;

 private:
  struct Block {
    std::size_t size = 0;
    bool allocated = false;
    void* cookie = nullptr;
  };

  using BlockMap = std::map<std::size_t, Block>;
  using FreeKey = std::pair<std::size_t, std::size_t>;

  [[nodiscard]] BlockMap::iterator find_fit(std::size_t size);
  void index_insert(std::size_t offset, std::size_t size);
  void index_erase(std::size_t offset, std::size_t size);

  std::size_t capacity_;
  std::size_t alignment_;
  BlockMap blocks_;
  std::set<FreeKey> free_index_;
  std::size_t allocated_bytes_ = 0;
  std::size_t allocated_blocks_ = 0;
  std::uint64_t total_allocs_ = 0;
  std::uint64_t total_frees_ = 0;
  std::uint64_t failed_allocs_ = 0;
};

}  // namespace ca::mem
