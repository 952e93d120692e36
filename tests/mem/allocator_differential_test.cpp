// Differential fuzz: the binned FreeListAllocator must reproduce the
// reference (map-based) allocator's behaviour bit for bit.  Both allocators
// consume the same seeded op stream; every returned offset is compared on
// the spot, and the full block tiling, stats and free index are reconciled
// periodically.  Placement parity is what makes the binned allocator a
// drop-in: fig3_heap_occupancy and every policy decision that keys off
// block addresses must not move.
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "mem/freelist_allocator.hpp"
#include "mem/reference_allocator.hpp"
#include "util/align.hpp"
#include "util/rng.hpp"

namespace {

using ca::mem::FreeListAllocator;
using ca::mem::ReferenceAllocator;

constexpr std::size_t kHeap = 16 * ca::util::MiB;
constexpr std::size_t kMaxRequest = 64 * ca::util::KiB;

// A deterministic cookie derived from the block offset, so cookie parity
// can be checked without real pointers.
void* cookie_for(std::size_t offset) {
  return reinterpret_cast<void*>(offset * 2 + 1);
}

void expect_same_tiling(const FreeListAllocator& neu,
                        const ReferenceAllocator& ref, std::uint64_t step) {
  const auto nb = neu.blocks();
  const auto rb = ref.blocks();
  ASSERT_EQ(nb.size(), rb.size()) << "block count diverged at step " << step;
  for (std::size_t i = 0; i < nb.size(); ++i) {
    ASSERT_EQ(nb[i].offset, rb[i].offset) << "at step " << step;
    ASSERT_EQ(nb[i].size, rb[i].size) << "at step " << step;
    ASSERT_EQ(nb[i].allocated, rb[i].allocated) << "at step " << step;
    ASSERT_EQ(nb[i].cookie, rb[i].cookie) << "at step " << step;
  }
  ASSERT_EQ(neu.free_index_snapshot(), ref.free_index_snapshot())
      << "free index diverged at step " << step;

  const auto ns = neu.stats();
  const auto rs = ref.stats();
  ASSERT_EQ(ns.capacity, rs.capacity);
  ASSERT_EQ(ns.allocated_bytes, rs.allocated_bytes) << "at step " << step;
  ASSERT_EQ(ns.free_bytes, rs.free_bytes) << "at step " << step;
  ASSERT_EQ(ns.largest_free_block, rs.largest_free_block)
      << "at step " << step;
  ASSERT_EQ(ns.allocated_blocks, rs.allocated_blocks) << "at step " << step;
  ASSERT_EQ(ns.free_blocks, rs.free_blocks) << "at step " << step;
  ASSERT_EQ(ns.total_allocs, rs.total_allocs) << "at step " << step;
  ASSERT_EQ(ns.total_frees, rs.total_frees) << "at step " << step;
  ASSERT_EQ(ns.failed_allocs, rs.failed_allocs) << "at step " << step;
}

void run_differential(std::uint64_t seed, std::uint64_t steps) {
  FreeListAllocator neu(kHeap);
  ReferenceAllocator ref(kHeap);
  ca::util::Xoshiro256 rng(seed);
  std::vector<std::size_t> live;

  for (std::uint64_t step = 0; step < steps; ++step) {
    const std::uint64_t roll = rng.bounded(100);
    if (roll < 55 || live.empty()) {
      // Allocate.  Mostly DNN-plausible sizes, with occasional zero-size
      // and absurd requests to exercise the failure edges.
      std::size_t size;
      const std::uint64_t kind = rng.bounded(100);
      if (kind < 2) {
        size = 0;
      } else if (kind < 4) {
        size = ~std::size_t{0} - rng.bounded(64);
      } else if (kind < 8) {
        size = kHeap / 2 + rng.bounded(kHeap);
      } else {
        size = 1 + rng.bounded(kMaxRequest);
      }
      const std::optional<std::size_t> no = neu.allocate(size);
      const std::optional<std::size_t> ro = ref.allocate(size);
      ASSERT_EQ(no, ro) << "placement diverged at step " << step
                        << " (size " << size << ")";
      if (no) {
        live.push_back(*no);
        if (rng.bounded(2) == 0) {
          neu.set_cookie(*no, cookie_for(*no));
          ref.set_cookie(*no, cookie_for(*no));
        }
      }
    } else if (roll < 95) {
      const std::size_t pick = rng.bounded(live.size());
      const std::size_t off = live[pick];
      ASSERT_TRUE(neu.is_allocated(off));
      ASSERT_EQ(neu.block_size(off), ref.block_size(off));
      ASSERT_EQ(neu.cookie(off), ref.cookie(off));
      neu.free(off);
      ref.free(off);
      ASSERT_FALSE(neu.is_allocated(off));
      live[pick] = live.back();
      live.pop_back();
    } else {
      // Probe queries at a random position.
      const std::size_t from = rng.bounded(kHeap + 64);
      ASSERT_EQ(neu.first_allocated_from(from),
                ref.first_allocated_from(from))
          << "at step " << step;
    }

    if ((step & 1023) == 0) {
      neu.check_invariants();
      ref.check_invariants();
      expect_same_tiling(neu, ref, step);
    }
  }
  neu.check_invariants();
  ref.check_invariants();
  expect_same_tiling(neu, ref, steps);
}

std::uint64_t fuzz_steps() {
  // 100k ops by default (the acceptance bar); CA_FUZZ_STEPS
  // can dial it down for quick local runs.
  if (const char* env = std::getenv("CA_FUZZ_STEPS")) {
    return static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10));
  }
  return 100000;
}

TEST(AllocatorDifferential, FirstFitMatchesReference) {
  run_differential(0x5eed0001, fuzz_steps());
}

TEST(AllocatorDifferential, TinyHeapHighChurn) {
  // A small heap forces constant splits, coalesces and failures.
  FreeListAllocator neu(4096);
  ReferenceAllocator ref(4096);
  ca::util::Xoshiro256 rng(7);
  std::vector<std::size_t> live;
  for (int step = 0; step < 20000; ++step) {
    if (rng.bounded(2) == 0 || live.empty()) {
      const std::size_t size = 1 + rng.bounded(1024);
      const auto no = neu.allocate(size);
      const auto ro = ref.allocate(size);
      ASSERT_EQ(no, ro) << "at step " << step;
      if (no) live.push_back(*no);
    } else {
      const std::size_t pick = rng.bounded(live.size());
      neu.free(live[pick]);
      ref.free(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
    neu.check_invariants();
  }
  expect_same_tiling(neu, ref, 20000);
}

}  // namespace
