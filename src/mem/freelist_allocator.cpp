#include "mem/freelist_allocator.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ca::mem {

FreeListAllocator::FreeListAllocator(std::size_t capacity,
                                     std::size_t alignment)
    : capacity_(util::align_down(capacity, alignment)),
      alignment_(alignment),
      shift_(static_cast<std::size_t>(std::bit_width(alignment)) - 1) {
  CA_CHECK(util::is_pow2(alignment), "alignment must be a power of two");
  CA_CHECK(capacity_ > 0, "capacity too small for the requested alignment");
  start_bits_.assign(((capacity_ >> shift_) + 63) / 64, 0);
  nodes_.reserve(64);
  const std::uint32_t i = new_node();
  Node& n = nodes_[i];
  n.offset = 0;
  n.size = capacity_;
  head_ = i;
  index_.emplace(0, i);
  set_start_bit(0);
  bin_link(i);
  free_blocks_ = 1;
}

// --- node slab --------------------------------------------------------------

std::uint32_t FreeListAllocator::new_node() {
  if (!free_slots_.empty()) {
    const std::uint32_t i = free_slots_.back();
    free_slots_.pop_back();
    nodes_[i] = Node{};
    return i;
  }
  CA_CHECK(nodes_.size() < kNil, "node slab exhausted");
  nodes_.emplace_back();
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void FreeListAllocator::recycle_node(std::uint32_t i) {
  nodes_[i] = Node{};
  free_slots_.push_back(i);
}

// --- bitmaps ----------------------------------------------------------------

void FreeListAllocator::set_bin_bit(std::size_t b) noexcept {
  bin_bitmap_[b >> 6] |= std::uint64_t{1} << (b & 63);
}

void FreeListAllocator::clear_bin_bit(std::size_t b) noexcept {
  bin_bitmap_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
}

std::size_t FreeListAllocator::next_occupied_bin(std::size_t b) const noexcept {
  const std::size_t from = b + 1;
  std::size_t w = from >> 6;
  if (w >= kBinWords) return kBinCount;
  std::uint64_t word = bin_bitmap_[w] & (~std::uint64_t{0} << (from & 63));
  for (;;) {
    if (word != 0) {
      const std::size_t bin =
          (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
      return bin < kBinCount ? bin : kBinCount;
    }
    if (++w >= kBinWords) return kBinCount;
    word = bin_bitmap_[w];
  }
}

void FreeListAllocator::set_start_bit(std::size_t offset) noexcept {
  const std::size_t u = offset >> shift_;
  start_bits_[u >> 6] |= std::uint64_t{1} << (u & 63);
}

void FreeListAllocator::clear_start_bit(std::size_t offset) noexcept {
  const std::size_t u = offset >> shift_;
  start_bits_[u >> 6] &= ~(std::uint64_t{1} << (u & 63));
}

std::uint32_t FreeListAllocator::block_at_or_before(std::size_t pos) const {
  std::size_t w = pos >> 6;
  const std::size_t bit = pos & 63;
  std::uint64_t word =
      start_bits_[w] &
      (bit == 63 ? ~std::uint64_t{0} : ((std::uint64_t{1} << (bit + 1)) - 1));
  for (;;) {
    if (word != 0) {
      const std::size_t u =
          (w << 6) + (63 - static_cast<std::size_t>(std::countl_zero(word)));
      const auto it = index_.find(u << shift_);
      CA_CHECK(it != index_.end(), "start bitmap points at no block");
      return it->second;
    }
    CA_CHECK(w > 0, "no block start at or below position");
    word = start_bits_[--w];
  }
}

// --- size-class bins --------------------------------------------------------

void FreeListAllocator::bin_link(std::uint32_t i) {
  Node& n = nodes_[i];
  const std::size_t b = bin_for_units(n.size >> shift_);
  n.bin = static_cast<std::uint16_t>(b);
  BinList& bl = bins_[b];

  // Find the entry to insert after: walk back from the tail, which is the
  // common case (frees at ascending addresses).
  std::uint32_t after = bl.tail;
  while (after != kNil && nodes_[after].offset > n.offset) {
    after = nodes_[after].bin_prev;
  }
  if (after == kNil) {
    n.bin_prev = kNil;
    n.bin_next = bl.head;
    if (bl.head != kNil) {
      nodes_[bl.head].bin_prev = i;
    } else {
      bl.tail = i;
      set_bin_bit(b);
    }
    bl.head = i;
  } else {
    n.bin_prev = after;
    n.bin_next = nodes_[after].bin_next;
    if (n.bin_next != kNil) {
      nodes_[n.bin_next].bin_prev = i;
    } else {
      bl.tail = i;
    }
    nodes_[after].bin_next = i;
  }
}

void FreeListAllocator::bin_unlink(std::uint32_t i) {
  Node& n = nodes_[i];
  CA_CHECK(n.bin != kNoBin, "bin unlink of an unfiled block");
  BinList& bl = bins_[n.bin];
  if (n.bin_prev != kNil) {
    nodes_[n.bin_prev].bin_next = n.bin_next;
  } else {
    bl.head = n.bin_next;
  }
  if (n.bin_next != kNil) {
    nodes_[n.bin_next].bin_prev = n.bin_prev;
  } else {
    bl.tail = n.bin_prev;
  }
  if (bl.head == kNil) clear_bin_bit(n.bin);
  n.bin = kNoBin;
  n.bin_prev = kNil;
  n.bin_next = kNil;
}

std::uint32_t FreeListAllocator::find_fit(std::size_t size,
                                          bool& from_home) const {
  const std::size_t home = bin_for_units(size >> shift_);
  std::uint32_t best = kNil;
  from_home = false;

  // Home bin: the list is address-ordered, so the first fitting entry is
  // the lowest-address fit within the class.
  for (std::uint32_t i = bins_[home].head; i != kNil;
       i = nodes_[i].bin_next) {
    if (nodes_[i].size >= size) {
      best = i;
      from_home = true;
      break;
    }
  }

  // The home candidate competes against the heads of all occupied higher
  // bins (each head is that bin's lowest address, and every block there
  // fits); the lowest address wins globally.
  for (std::size_t b = next_occupied_bin(home); b < kBinCount;
       b = next_occupied_bin(b)) {
    const std::uint32_t h = bins_[b].head;
    if (best == kNil || nodes_[h].offset < nodes_[best].offset) {
      best = h;
      from_home = false;
    }
  }
  return best;
}

// --- allocate / free --------------------------------------------------------

std::optional<std::size_t> FreeListAllocator::allocate(std::size_t size) {
  if (size == 0) size = alignment_;
  const std::size_t aligned = util::align_up(size, alignment_);
  if (aligned < size || aligned > capacity_) {
    // Overflow in align_up (size within alignment-1 of SIZE_MAX) or a
    // request larger than the whole heap.
    ++failed_allocs_;
    return std::nullopt;
  }
  size = aligned;
  bool from_home = false;
  const std::uint32_t i = find_fit(size, from_home);
  if (i == kNil) {
    ++failed_allocs_;
    return std::nullopt;
  }
  if (from_home) {
    ++bin_exact_hits_;
  } else {
    ++bin_spill_allocs_;
  }
  bin_unlink(i);
  --free_blocks_;

  nodes_[i].allocated = true;
  nodes_[i].cookie = nullptr;
  const std::size_t offset = nodes_[i].offset;
  const std::size_t block_size = nodes_[i].size;
  if (block_size > size) {
    // Split: remainder becomes a new free block immediately after.  Fetch
    // fields before new_node(): growing the slab may reallocate it.
    nodes_[i].size = size;
    const std::uint32_t old_next = nodes_[i].next;
    const std::uint32_t r = new_node();
    Node& rem = nodes_[r];
    rem.offset = offset + size;
    rem.size = block_size - size;
    rem.prev = i;
    rem.next = old_next;
    if (old_next != kNil) nodes_[old_next].prev = r;
    nodes_[i].next = r;
    index_.emplace(rem.offset, r);
    set_start_bit(rem.offset);
    bin_link(r);
    ++free_blocks_;
    ++splits_;
  }
  allocated_bytes_ += size;
  ++allocated_blocks_;
  ++total_allocs_;
  return offset;
}

void FreeListAllocator::free(std::size_t offset) {
  const auto it = index_.find(offset);
  CA_CHECK(it != index_.end() && nodes_[it->second].allocated,
           "free of an offset that is not an allocated block");
  std::uint32_t i = it->second;
  allocated_bytes_ -= nodes_[i].size;
  --allocated_blocks_;
  ++total_frees_;
  nodes_[i].allocated = false;
  nodes_[i].cookie = nullptr;

  // Coalesce with the following block if free: the neighbour link reaches
  // it in O(1) (the boundary-tag role of Node::next).
  const std::uint32_t nx = nodes_[i].next;
  if (nx != kNil && !nodes_[nx].allocated) {
    bin_unlink(nx);
    --free_blocks_;
    nodes_[i].size += nodes_[nx].size;
    nodes_[i].next = nodes_[nx].next;
    if (nodes_[i].next != kNil) nodes_[nodes_[i].next].prev = i;
    index_.erase(nodes_[nx].offset);
    clear_start_bit(nodes_[nx].offset);
    recycle_node(nx);
    ++coalesces_;
  }
  // Coalesce with the preceding block if free.
  const std::uint32_t pv = nodes_[i].prev;
  if (pv != kNil && !nodes_[pv].allocated) {
    bin_unlink(pv);
    --free_blocks_;
    nodes_[pv].size += nodes_[i].size;
    nodes_[pv].next = nodes_[i].next;
    if (nodes_[pv].next != kNil) nodes_[nodes_[pv].next].prev = pv;
    index_.erase(nodes_[i].offset);
    clear_start_bit(nodes_[i].offset);
    recycle_node(i);
    i = pv;
    ++coalesces_;
  }
  bin_link(i);
  ++free_blocks_;
}

// --- lookups ----------------------------------------------------------------

bool FreeListAllocator::is_allocated(std::size_t offset) const {
  const auto it = index_.find(offset);
  return it != index_.end() && nodes_[it->second].allocated;
}

std::size_t FreeListAllocator::block_size(std::size_t offset) const {
  const auto it = index_.find(offset);
  CA_CHECK(it != index_.end() && nodes_[it->second].allocated,
           "block_size of a non-allocated offset");
  return nodes_[it->second].size;
}

void FreeListAllocator::set_cookie(std::size_t offset, void* cookie) {
  const auto it = index_.find(offset);
  CA_CHECK(it != index_.end() && nodes_[it->second].allocated,
           "set_cookie of a non-allocated offset");
  nodes_[it->second].cookie = cookie;
}

void* FreeListAllocator::cookie(std::size_t offset) const {
  const auto it = index_.find(offset);
  CA_CHECK(it != index_.end() && nodes_[it->second].allocated,
           "cookie of a non-allocated offset");
  return nodes_[it->second].cookie;
}

// --- address-order iteration ------------------------------------------------

std::vector<FreeListAllocator::BlockView> FreeListAllocator::blocks() const {
  std::vector<BlockView> out;
  out.reserve(index_.size());
  for (std::uint32_t i = head_; i != kNil; i = nodes_[i].next) {
    const Node& n = nodes_[i];
    out.push_back({n.offset, n.size, n.allocated, n.cookie});
  }
  return out;
}

void FreeListAllocator::for_blocks_from(
    std::size_t from,
    const std::function<bool(const BlockView&)>& fn) const {
  std::uint32_t i;
  if (from == 0) {
    i = head_;
  } else {
    i = block_at_or_before(std::min(from, capacity_ - 1) >> shift_);
    if (nodes_[i].offset + nodes_[i].size <= from) i = nodes_[i].next;
  }
  for (; i != kNil; i = nodes_[i].next) {
    const Node& n = nodes_[i];
    const BlockView view{n.offset, n.size, n.allocated, n.cookie};
    if (!fn(view)) return;
  }
}

std::optional<std::size_t> FreeListAllocator::first_allocated_from(
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

// --- stats / snapshots ------------------------------------------------------

std::vector<std::pair<std::size_t, std::size_t>>
FreeListAllocator::free_index_snapshot() const {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  out.reserve(free_blocks_);
  for (std::size_t b = 0; b < kBinCount; ++b) {
    for (std::uint32_t i = bins_[b].head; i != kNil;
         i = nodes_[i].bin_next) {
      out.emplace_back(nodes_[i].size, nodes_[i].offset);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

FreeListAllocator::Stats FreeListAllocator::stats() const {
  Stats s;
  s.capacity = capacity_;
  s.allocated_bytes = allocated_bytes_;
  s.free_bytes = capacity_ - allocated_bytes_;
  s.allocated_blocks = allocated_blocks_;
  s.free_blocks = free_blocks_;
  s.total_allocs = total_allocs_;
  s.total_frees = total_frees_;
  s.failed_allocs = failed_allocs_;
  s.splits = splits_;
  s.coalesces = coalesces_;
  s.bin_exact_hits = bin_exact_hits_;
  s.bin_spill_allocs = bin_spill_allocs_;

  // Largest free block: the highest occupied bin holds it.  Exact bins are
  // single-size (O(1)); a coarse bin needs one short list scan.
  for (std::size_t w = kBinWords; w-- > 0;) {
    if (bin_bitmap_[w] == 0) continue;
    const std::size_t b =
        (w << 6) + (63 - static_cast<std::size_t>(std::countl_zero(
                             bin_bitmap_[w])));
    if (b < kExactBins) {
      s.largest_free_block = (b + 1) << shift_;
    } else {
      for (std::uint32_t i = bins_[b].head; i != kNil;
           i = nodes_[i].bin_next) {
        s.largest_free_block = std::max(s.largest_free_block, nodes_[i].size);
      }
    }
    break;
  }
  return s;
}

std::size_t FreeListAllocator::bin_min_bytes(std::size_t b) const noexcept {
  std::size_t units;
  if (b < kExactBins) {
    units = b + 1;
  } else {
    const std::size_t g = b - kExactBins;
    const std::size_t k = kExactShift + g / kSubBins;
    const std::size_t sub = g % kSubBins;
    units = (std::size_t{1} << k) + sub * (std::size_t{1} << (k - 2));
    // 2^kExactShift units itself belongs to the last exact bin.
    if (b == kExactBins) units = kExactBins + 1;
  }
  if (units > (~std::size_t{0} >> shift_)) return ~std::size_t{0};
  return units << shift_;
}

std::vector<FreeListAllocator::BinView> FreeListAllocator::bin_snapshot()
    const {
  std::vector<BinView> out;
  for (std::size_t b = 0; b < kBinCount; ++b) {
    if (bins_[b].head == kNil) continue;
    BinView v;
    v.bin = b;
    v.min_bytes = bin_min_bytes(b);
    for (std::uint32_t i = bins_[b].head; i != kNil;
         i = nodes_[i].bin_next) {
      v.entries.push_back({nodes_[i].offset, nodes_[i].size});
    }
    out.push_back(std::move(v));
  }
  return out;
}

std::vector<std::uint64_t> FreeListAllocator::bin_bitmap_words() const {
  return {bin_bitmap_.begin(), bin_bitmap_.end()};
}

std::vector<FreeListAllocator::BoundaryTag>
FreeListAllocator::boundary_snapshot() const {
  std::vector<BoundaryTag> out;
  out.reserve(index_.size());
  for (const auto& [off, i] : index_) {
    const Node& n = nodes_[i];
    BoundaryTag t;
    t.offset = off;
    t.size = n.size;
    t.allocated = n.allocated;
    const std::size_t u = off >> shift_;
    t.start_bit =
        (start_bits_[u >> 6] & (std::uint64_t{1} << (u & 63))) != 0;
    if (n.prev != kNil) t.prev_offset = nodes_[n.prev].offset;
    if (n.next != kNil) t.next_offset = nodes_[n.next].offset;
    out.push_back(t);
  }
  std::sort(out.begin(), out.end(),
            [](const BoundaryTag& a, const BoundaryTag& b) {
              return a.offset < b.offset;
            });
  return out;
}

std::size_t FreeListAllocator::start_bit_count() const noexcept {
  std::size_t count = 0;
  for (const std::uint64_t w : start_bits_) {
    count += static_cast<std::size_t>(std::popcount(w));
  }
  return count;
}

// --- invariants -------------------------------------------------------------

void FreeListAllocator::check_invariants() const {
  // Address-order walk: tiling, alignment, coalescing, link mutuality,
  // index and start-bitmap agreement, byte accounting.
  std::size_t expected_offset = 0;
  std::size_t free_bytes = 0;
  std::size_t alloc_bytes = 0;
  std::size_t alloc_blocks = 0;
  std::size_t free_blocks = 0;
  std::size_t walk_blocks = 0;
  bool prev_free = false;
  std::uint32_t prev = kNil;
  for (std::uint32_t i = head_; i != kNil; i = nodes_[i].next) {
    const Node& n = nodes_[i];
    CA_CHECK(n.offset == expected_offset, "blocks do not tile the heap");
    CA_CHECK(n.size > 0, "zero-sized block");
    CA_CHECK(util::is_aligned(n.offset, alignment_),
             "misaligned block offset");
    CA_CHECK(util::is_aligned(n.size, alignment_), "misaligned block size");
    CA_CHECK(n.prev == prev, "address-order prev link broken");
    const auto it = index_.find(n.offset);
    CA_CHECK(it != index_.end() && it->second == i,
             "offset index out of sync");
    const std::size_t u = n.offset >> shift_;
    CA_CHECK((start_bits_[u >> 6] & (std::uint64_t{1} << (u & 63))) != 0,
             "block start missing from the start bitmap");
    if (n.allocated) {
      CA_CHECK(n.bin == kNoBin && n.bin_prev == kNil && n.bin_next == kNil,
               "allocated block threaded through a bin");
      alloc_bytes += n.size;
      ++alloc_blocks;
      prev_free = false;
    } else {
      CA_CHECK(!prev_free, "two adjacent free blocks (missed coalesce)");
      CA_CHECK(n.bin == bin_for_units(n.size >> shift_),
               "free block filed under the wrong size class");
      free_bytes += n.size;
      ++free_blocks;
      prev_free = true;
    }
    ++walk_blocks;
    expected_offset = n.offset + n.size;
    prev = i;
  }
  CA_CHECK(expected_offset == capacity_, "blocks do not cover the heap");
  CA_CHECK(walk_blocks == index_.size(),
           "offset index size does not match the walk");
  CA_CHECK(start_bit_count() == walk_blocks,
           "start bitmap population does not match the block count");
  CA_CHECK(alloc_bytes == allocated_bytes_, "allocated byte count drifted");
  CA_CHECK(alloc_blocks == allocated_blocks_,
           "allocated block count drifted");
  CA_CHECK(free_blocks == free_blocks_, "free block count drifted");
  CA_CHECK(free_bytes + alloc_bytes == capacity_, "byte accounting drifted");

  // Bin walk: membership, address ordering, link mutuality, bitmap.
  std::size_t binned_blocks = 0;
  for (std::size_t b = 0; b < kBinCount; ++b) {
    const BinList& bl = bins_[b];
    const bool bit =
        (bin_bitmap_[b >> 6] & (std::uint64_t{1} << (b & 63))) != 0;
    CA_CHECK(bit == (bl.head != kNil),
             "bin bitmap disagrees with bin occupancy");
    std::uint32_t bprev = kNil;
    for (std::uint32_t i = bl.head; i != kNil; i = nodes_[i].bin_next) {
      const Node& n = nodes_[i];
      CA_CHECK(!n.allocated, "allocated block reachable from a bin");
      CA_CHECK(n.bin == b, "bin field disagrees with the list holding it");
      CA_CHECK(bin_for_units(n.size >> shift_) == b,
               "bin holds a block of a different size class");
      CA_CHECK(n.bin_prev == bprev, "bin prev link broken");
      CA_CHECK(bprev == kNil || nodes_[bprev].offset < n.offset,
               "first-fit bin not address-ordered");
      ++binned_blocks;
      bprev = i;
    }
    CA_CHECK(bl.tail == bprev, "bin tail out of sync");
  }
  CA_CHECK(binned_blocks == free_blocks_,
           "bins do not hold exactly the free blocks");
}

}  // namespace ca::mem
