#include "mem/reference_allocator.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ca::mem {

ReferenceAllocator::ReferenceAllocator(std::size_t capacity,
                                       std::size_t alignment)
    : capacity_(util::align_down(capacity, alignment)),
      alignment_(alignment) {
  CA_CHECK(util::is_pow2(alignment), "alignment must be a power of two");
  CA_CHECK(capacity_ > 0, "capacity too small for the requested alignment");
  blocks_.emplace(0, Block{capacity_, /*allocated=*/false, nullptr});
  free_index_.insert({capacity_, 0});
}

void ReferenceAllocator::index_insert(std::size_t offset, std::size_t size) {
  free_index_.insert({size, offset});
}

void ReferenceAllocator::index_erase(std::size_t offset, std::size_t size) {
  const auto it = free_index_.find({size, offset});
  CA_CHECK(it != free_index_.end(), "free index out of sync");
  free_index_.erase(it);
}

ReferenceAllocator::BlockMap::iterator ReferenceAllocator::find_fit(
    std::size_t size) {
  // First fit: lowest-address free block that fits.
  for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
    if (!it->second.allocated && it->second.size >= size) return it;
  }
  return blocks_.end();
}

std::optional<std::size_t> ReferenceAllocator::allocate(std::size_t size) {
  if (size == 0) size = alignment_;
  const std::size_t aligned = util::align_up(size, alignment_);
  if (aligned < size || aligned > capacity_) {
    ++failed_allocs_;
    return std::nullopt;
  }
  size = aligned;
  const auto it = find_fit(size);
  if (it == blocks_.end()) {
    ++failed_allocs_;
    return std::nullopt;
  }
  const std::size_t offset = it->first;
  const std::size_t block_size = it->second.size;
  index_erase(offset, block_size);

  it->second.allocated = true;
  it->second.cookie = nullptr;
  if (block_size > size) {
    it->second.size = size;
    const std::size_t rem_off = offset + size;
    const std::size_t rem_size = block_size - size;
    blocks_.emplace(rem_off, Block{rem_size, false, nullptr});
    index_insert(rem_off, rem_size);
  }
  allocated_bytes_ += size;
  ++allocated_blocks_;
  ++total_allocs_;
  return offset;
}

void ReferenceAllocator::free(std::size_t offset) {
  auto it = blocks_.find(offset);
  CA_CHECK(it != blocks_.end() && it->second.allocated,
           "free of an offset that is not an allocated block");
  allocated_bytes_ -= it->second.size;
  --allocated_blocks_;
  ++total_frees_;
  it->second.allocated = false;
  it->second.cookie = nullptr;

  auto next = std::next(it);
  if (next != blocks_.end() && !next->second.allocated) {
    index_erase(next->first, next->second.size);
    it->second.size += next->second.size;
    blocks_.erase(next);
  }
  if (it != blocks_.begin()) {
    auto prev = std::prev(it);
    if (!prev->second.allocated) {
      index_erase(prev->first, prev->second.size);
      prev->second.size += it->second.size;
      blocks_.erase(it);
      it = prev;
    }
  }
  index_insert(it->first, it->second.size);
}

bool ReferenceAllocator::is_allocated(std::size_t offset) const {
  const auto it = blocks_.find(offset);
  return it != blocks_.end() && it->second.allocated;
}

std::size_t ReferenceAllocator::block_size(std::size_t offset) const {
  const auto it = blocks_.find(offset);
  CA_CHECK(it != blocks_.end() && it->second.allocated,
           "block_size of a non-allocated offset");
  return it->second.size;
}

void ReferenceAllocator::set_cookie(std::size_t offset, void* cookie) {
  const auto it = blocks_.find(offset);
  CA_CHECK(it != blocks_.end() && it->second.allocated,
           "set_cookie of a non-allocated offset");
  it->second.cookie = cookie;
}

void* ReferenceAllocator::cookie(std::size_t offset) const {
  const auto it = blocks_.find(offset);
  CA_CHECK(it != blocks_.end() && it->second.allocated,
           "cookie of a non-allocated offset");
  return it->second.cookie;
}

std::vector<ReferenceAllocator::BlockView> ReferenceAllocator::blocks() const {
  std::vector<BlockView> out;
  out.reserve(blocks_.size());
  for (const auto& [off, b] : blocks_) {
    out.push_back({off, b.size, b.allocated, b.cookie});
  }
  return out;
}

void ReferenceAllocator::for_blocks_from(
    std::size_t from,
    const std::function<bool(const BlockView&)>& fn) const {
  auto it = blocks_.upper_bound(from);
  if (it != blocks_.begin()) --it;  // block containing `from`
  if (it->first + it->second.size <= from) ++it;
  for (; it != blocks_.end(); ++it) {
    const BlockView view{it->first, it->second.size, it->second.allocated,
                         it->second.cookie};
    if (!fn(view)) return;
  }
}

std::optional<std::size_t> ReferenceAllocator::first_allocated_from(
    std::size_t from) const {
  std::optional<std::size_t> found;
  for_blocks_from(from, [&](const BlockView& b) {
    if (b.allocated) {
      found = b.offset;
      return false;
    }
    return true;
  });
  return found;
}

std::vector<std::pair<std::size_t, std::size_t>>
ReferenceAllocator::free_index_snapshot() const {
  return {free_index_.begin(), free_index_.end()};
}

ReferenceAllocator::Stats ReferenceAllocator::stats() const {
  Stats s;
  s.capacity = capacity_;
  s.allocated_bytes = allocated_bytes_;
  s.free_bytes = capacity_ - allocated_bytes_;
  s.allocated_blocks = allocated_blocks_;
  s.free_blocks = free_index_.size();
  s.largest_free_block =
      free_index_.empty() ? 0 : free_index_.rbegin()->first;
  s.total_allocs = total_allocs_;
  s.total_frees = total_frees_;
  s.failed_allocs = failed_allocs_;
  return s;
}

void ReferenceAllocator::check_invariants() const {
  std::size_t expected_offset = 0;
  std::size_t free_bytes = 0;
  std::size_t alloc_bytes = 0;
  std::size_t alloc_blocks = 0;
  std::size_t free_blocks = 0;
  bool prev_free = false;
  for (const auto& [off, b] : blocks_) {
    CA_CHECK(off == expected_offset, "blocks do not tile the heap");
    CA_CHECK(b.size > 0, "zero-sized block");
    CA_CHECK(util::is_aligned(off, alignment_), "misaligned block offset");
    CA_CHECK(util::is_aligned(b.size, alignment_), "misaligned block size");
    if (b.allocated) {
      alloc_bytes += b.size;
      ++alloc_blocks;
      prev_free = false;
    } else {
      CA_CHECK(!prev_free, "two adjacent free blocks (missed coalesce)");
      CA_CHECK(free_index_.count({b.size, off}) == 1,
               "free block missing from the size index");
      free_bytes += b.size;
      ++free_blocks;
      prev_free = true;
    }
    expected_offset = off + b.size;
  }
  CA_CHECK(expected_offset == capacity_, "blocks do not cover the heap");
  CA_CHECK(alloc_bytes == allocated_bytes_, "allocated byte count drifted");
  CA_CHECK(alloc_blocks == allocated_blocks_, "allocated block count drifted");
  CA_CHECK(free_blocks == free_index_.size(),
           "free index size does not match free block count");
  CA_CHECK(free_bytes + alloc_bytes == capacity_, "byte accounting drifted");
}

}  // namespace ca::mem
