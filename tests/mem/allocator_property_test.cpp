// Property-based tests: random allocate/free interleavings must preserve
// the allocator's structural invariants, never hand out overlapping blocks,
// and return all memory once everything is freed.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "mem/freelist_allocator.hpp"
#include "util/align.hpp"
#include "util/rng.hpp"

namespace ca::mem {
namespace {

struct PropertyParam {
  std::uint64_t seed;
  std::size_t max_alloc;
  std::size_t alignment;  ///< heap alignment (the allocator's default, 64)
};

class AllocatorProperty : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(AllocatorProperty, RandomWorkloadPreservesInvariants) {
  const auto param = GetParam();
  util::Xoshiro256 rng(param.seed);
  FreeListAllocator a(256 * util::KiB, param.alignment);

  // offset -> size of live allocations, mirrored outside the allocator.
  std::map<std::size_t, std::size_t> live;

  for (int step = 0; step < 3000; ++step) {
    const bool do_alloc = live.empty() || rng.uniform() < 0.55;
    if (do_alloc) {
      const std::size_t size = 1 + rng.bounded(param.max_alloc);
      const auto off = a.allocate(size);
      if (off.has_value()) {
        const std::size_t rounded = util::align_up(size, param.alignment);
        // No overlap with any existing live allocation.
        for (const auto& [o, s] : live) {
          const bool disjoint = *off + rounded <= o || o + s <= *off;
          ASSERT_TRUE(disjoint) << "overlapping blocks at step " << step;
        }
        live.emplace(*off, rounded);
      }
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.bounded(live.size())));
      a.free(it->first);
      live.erase(it);
    }
    if (step % 200 == 0) a.check_invariants();
  }
  a.check_invariants();

  // Free everything: the heap must return to a single free block.
  for (const auto& [off, size] : live) a.free(off);
  a.check_invariants();
  EXPECT_EQ(a.blocks().size(), 1u);
  EXPECT_EQ(a.stats().free_bytes, a.capacity());
  EXPECT_EQ(a.stats().allocated_blocks, 0u);
}

TEST_P(AllocatorProperty, AllocationsNeverExceedCapacity) {
  const auto param = GetParam();
  util::Xoshiro256 rng(param.seed ^ 0xDEADBEEF);
  FreeListAllocator a(64 * util::KiB, param.alignment);
  std::vector<std::size_t> offs;
  std::size_t requested = 0;
  for (int i = 0; i < 500; ++i) {
    const std::size_t size = 1 + rng.bounded(param.max_alloc);
    if (const auto off = a.allocate(size)) {
      offs.push_back(*off);
      requested += util::align_up(size, param.alignment);
    }
  }
  EXPECT_EQ(a.stats().allocated_bytes, requested);
  EXPECT_LE(a.stats().allocated_bytes, a.capacity());
  for (const auto off : offs) a.free(off);
  EXPECT_EQ(a.stats().allocated_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, AllocatorProperty,
    ::testing::Values(
        PropertyParam{1, 512, 64},
        PropertyParam{2, 8192, 64},
        PropertyParam{3, 64 * 1024, 64},
        PropertyParam{7, 100, 64}),
    [](const ::testing::TestParamInfo<PropertyParam>& info) {
      const auto& p = info.param;
      return "FirstFit_max" + std::to_string(p.max_alloc) + "_seed" +
             std::to_string(p.seed);
    });

}  // namespace
}  // namespace ca::mem
