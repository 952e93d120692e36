#include "mem/freelist_allocator.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "util/align.hpp"
#include "util/error.hpp"

namespace ca::mem {
namespace {

constexpr std::size_t kCap = 64 * util::KiB;

TEST(FreeList, FreshHeapIsOneFreeBlock) {
  FreeListAllocator a(kCap);
  const auto blocks = a.blocks();
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_FALSE(blocks[0].allocated);
  EXPECT_EQ(blocks[0].size, kCap);
  EXPECT_EQ(a.stats().free_bytes, kCap);
}

TEST(FreeList, AllocateReturnsAlignedOffsets) {
  FreeListAllocator a(kCap, 64);
  for (int i = 0; i < 10; ++i) {
    const auto off = a.allocate(100);
    ASSERT_TRUE(off.has_value());
    EXPECT_TRUE(util::is_aligned(*off, 64));
  }
}

TEST(FreeList, SizesRoundUpToAlignment) {
  FreeListAllocator a(kCap, 64);
  const auto off = a.allocate(1);
  ASSERT_TRUE(off.has_value());
  EXPECT_EQ(a.block_size(*off), 64u);
}

TEST(FreeList, ZeroSizeAllocationGetsMinimumBlock) {
  FreeListAllocator a(kCap, 64);
  const auto off = a.allocate(0);
  ASSERT_TRUE(off.has_value());
  EXPECT_EQ(a.block_size(*off), 64u);
}

TEST(FreeList, FirstFitPlacesAtLowestAddress) {
  FreeListAllocator a(kCap);
  const auto x = a.allocate(1024);
  const auto y = a.allocate(1024);
  ASSERT_TRUE(x && y);
  EXPECT_EQ(*x, 0u);
  EXPECT_EQ(*y, 1024u);
  a.free(*x);
  // First-fit reuses the freed low block.
  const auto z = a.allocate(512);
  ASSERT_TRUE(z);
  EXPECT_EQ(*z, 0u);
}

TEST(FreeList, ExhaustionReturnsNullopt) {
  FreeListAllocator a(kCap);
  const auto big = a.allocate(kCap);
  ASSERT_TRUE(big.has_value());
  EXPECT_FALSE(a.allocate(64).has_value());
  EXPECT_EQ(a.stats().failed_allocs, 1u);
}

TEST(FreeList, OversizedRequestFails) {
  FreeListAllocator a(kCap);
  EXPECT_FALSE(a.allocate(kCap + 1).has_value());
}

TEST(FreeList, FreeCoalescesWithNext) {
  FreeListAllocator a(kCap);
  const auto x = a.allocate(1024);
  const auto y = a.allocate(1024);
  ASSERT_TRUE(x && y);
  a.free(*y);  // y merges with trailing free space
  a.free(*x);  // x merges with the rest -> single free block
  EXPECT_EQ(a.blocks().size(), 1u);
  a.check_invariants();
}

TEST(FreeList, FreeCoalescesWithPrev) {
  FreeListAllocator a(kCap);
  const auto x = a.allocate(1024);
  const auto y = a.allocate(1024);
  const auto z = a.allocate(1024);
  ASSERT_TRUE(x && y && z);
  a.free(*x);
  a.free(*y);  // merges with freed x
  const auto blocks = a.blocks();
  // [free 2048][z][free rest]
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_FALSE(blocks[0].allocated);
  EXPECT_EQ(blocks[0].size, 2048u);
  a.check_invariants();
}

TEST(FreeList, FreeCoalescesBothSides) {
  FreeListAllocator a(kCap);
  const auto x = a.allocate(1024);
  const auto y = a.allocate(1024);
  const auto z = a.allocate(1024);
  ASSERT_TRUE(x && y && z);
  a.free(*x);
  a.free(*z);  // z merges with trailing free space
  a.free(*y);  // y bridges both sides -> one free block
  EXPECT_EQ(a.blocks().size(), 1u);
  a.check_invariants();
}

TEST(FreeList, DoubleFreeThrows) {
  FreeListAllocator a(kCap);
  const auto x = a.allocate(64);
  ASSERT_TRUE(x);
  a.free(*x);
  EXPECT_THROW(a.free(*x), InternalError);
}

TEST(FreeList, FreeOfBogusOffsetThrows) {
  FreeListAllocator a(kCap);
  EXPECT_THROW(a.free(12345), InternalError);
}

TEST(FreeList, CookieRoundTrip) {
  FreeListAllocator a(kCap);
  const auto x = a.allocate(64);
  ASSERT_TRUE(x);
  int marker = 0;
  a.set_cookie(*x, &marker);
  EXPECT_EQ(a.cookie(*x), &marker);
  a.free(*x);
  EXPECT_THROW((void)a.cookie(*x), InternalError);
}

TEST(FreeList, StatsTrackAllocationActivity) {
  FreeListAllocator a(kCap);
  const auto x = a.allocate(1024);
  const auto y = a.allocate(2048);
  ASSERT_TRUE(x && y);
  auto s = a.stats();
  EXPECT_EQ(s.allocated_bytes, 3072u);
  EXPECT_EQ(s.allocated_blocks, 2u);
  EXPECT_EQ(s.total_allocs, 2u);
  a.free(*x);
  s = a.stats();
  EXPECT_EQ(s.allocated_bytes, 2048u);
  EXPECT_EQ(s.total_frees, 1u);
}

TEST(FreeList, FragmentationMetric) {
  FreeListAllocator a(kCap);
  // Allocate everything in 1 KiB pieces, then free alternating pieces:
  // the largest free block stays 1 KiB while total free is half the heap.
  std::vector<std::size_t> offs;
  while (auto off = a.allocate(1024)) offs.push_back(*off);
  for (std::size_t i = 0; i < offs.size(); i += 2) a.free(offs[i]);
  const auto s = a.stats();
  EXPECT_EQ(s.largest_free_block, 1024u);
  EXPECT_GT(s.fragmentation(), 0.9);
  a.check_invariants();
}

TEST(FreeList, ForBlocksFromStartsAtContainingBlock) {
  FreeListAllocator a(kCap);
  const auto x = a.allocate(1024);
  const auto y = a.allocate(1024);
  ASSERT_TRUE(x && y);
  std::vector<std::size_t> seen;
  a.for_blocks_from(512, [&](const FreeListAllocator::BlockView& b) {
    seen.push_back(b.offset);
    return true;
  });
  ASSERT_GE(seen.size(), 2u);
  EXPECT_EQ(seen[0], 0u);  // block containing offset 512
  EXPECT_EQ(seen[1], 1024u);
}

TEST(FreeList, ForBlocksFromCanStopEarly) {
  FreeListAllocator a(kCap);
  (void)a.allocate(1024);
  (void)a.allocate(1024);
  int count = 0;
  a.for_blocks_from(0, [&](const FreeListAllocator::BlockView&) {
    ++count;
    return count < 1;
  });
  EXPECT_EQ(count, 1);
}

TEST(FreeList, FirstAllocatedFrom) {
  FreeListAllocator a(kCap);
  const auto x = a.allocate(1024);
  const auto y = a.allocate(1024);
  ASSERT_TRUE(x && y);
  a.free(*x);
  EXPECT_EQ(a.first_allocated_from(0), *y);
  EXPECT_EQ(a.first_allocated_from(*y), *y);
  EXPECT_EQ(a.first_allocated_from(*y + 1024), std::nullopt);
}

TEST(FreeList, CapacityRoundsDownToAlignment) {
  FreeListAllocator a(1000, 64);
  EXPECT_EQ(a.capacity(), 960u);
}

TEST(FreeList, ReusePatternKeepsHeapTight) {
  FreeListAllocator a(kCap);
  for (int round = 0; round < 100; ++round) {
    const auto x = a.allocate(4096);
    ASSERT_TRUE(x);
    EXPECT_EQ(*x, 0u);  // perfect reuse: no creep
    a.free(*x);
  }
  EXPECT_EQ(a.blocks().size(), 1u);
}

TEST(FreeList, NearMaxRequestFailsInsteadOfWrapping) {
  // Regression: align_up(SIZE_MAX - k, 64) wrapped to a tiny size, so the
  // allocator carved a zero-byte block at an existing offset and corrupted
  // both the block map and the free index.
  FreeListAllocator a(kCap);
  const auto max = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(a.allocate(max), std::nullopt);
  EXPECT_EQ(a.allocate(max - 1), std::nullopt);
  EXPECT_EQ(a.allocate(max - 63), std::nullopt);
  EXPECT_EQ(a.allocate(kCap + 1), std::nullopt);
  a.check_invariants();
  EXPECT_EQ(a.stats().failed_allocs, 4u);
  // The heap is still fully usable afterwards.
  const auto x = a.allocate(kCap);
  ASSERT_TRUE(x.has_value());
  a.free(*x);
  a.check_invariants();
}

}  // namespace
}  // namespace ca::mem
