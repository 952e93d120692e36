#include "twolm/direct_mapped_cache.hpp"

#include <gtest/gtest.h>

#include "util/align.hpp"

namespace ca::twolm {
namespace {

class CacheFixture : public ::testing::Test {
 protected:
  CacheFixture()
      : platform_(sim::Platform::cascade_lake_scaled(4 * util::KiB,
                                                     64 * util::KiB)) {}

  DirectMappedCache make(std::size_t capacity = 4 * util::KiB) {
    CacheConfig cfg;
    cfg.capacity = capacity;
    return DirectMappedCache(cfg, platform_, counters_);
  }

  sim::Platform platform_;
  telemetry::TrafficCounters counters_;
};

TEST_F(CacheFixture, GeometryIsDerivedFromConfig) {
  auto c = make(4 * util::KiB);
  EXPECT_EQ(c.num_sets(), 64u);
}

TEST_F(CacheFixture, ColdAccessesMissClean) {
  auto c = make();
  c.access(0, 4 * util::KiB, /*write=*/false);
  const auto& s = c.stats();
  EXPECT_EQ(s.accesses, 64u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.clean_misses, 64u);
  EXPECT_EQ(s.dirty_misses, 0u);
}

TEST_F(CacheFixture, RepeatedReadsHit) {
  auto c = make();
  c.access(0, 4 * util::KiB, false);
  c.access(0, 4 * util::KiB, false);
  EXPECT_EQ(c.stats().hits, 64u);
  EXPECT_DOUBLE_EQ(c.stats().hit_rate(), 0.5);
}

TEST_F(CacheFixture, ConflictingAddressesEvict) {
  auto c = make();  // 4 KiB cache: addresses 4 KiB apart conflict
  c.access(0, 64, false);
  c.access(4 * util::KiB, 64, false);  // same set, different tag
  c.access(0, 64, false);              // evicted: miss again
  EXPECT_EQ(c.stats().hits, 0u);
  EXPECT_EQ(c.stats().clean_misses, 3u);
}

TEST_F(CacheFixture, DirtyEvictionCountsAndWritesBack) {
  auto c = make();
  c.access(0, 64, /*write=*/true);             // miss, fill, dirty
  const auto nvram_writes_before =
      counters_.device(sim::kSlow).bytes_written;
  c.access(4 * util::KiB, 64, false);          // conflict: dirty eviction
  EXPECT_EQ(c.stats().dirty_misses, 1u);
  EXPECT_EQ(counters_.device(sim::kSlow).bytes_written,
            nvram_writes_before + 64);
}

TEST_F(CacheFixture, WriteAllocateFillsOnWriteMiss) {
  auto c = make();
  const auto nvram_reads_before = counters_.device(sim::kSlow).bytes_read;
  c.access(0, 64, /*write=*/true);
  // Even a full-block write first fills the block from NVRAM -- the write
  // amplification the paper attributes to 2LM.
  EXPECT_EQ(counters_.device(sim::kSlow).bytes_read,
            nvram_reads_before + 64);
}

TEST_F(CacheFixture, CleanEvictionDoesNotWriteBack) {
  auto c = make();
  c.access(0, 64, false);
  const auto before = counters_.device(sim::kSlow).bytes_written;
  c.access(4 * util::KiB, 64, false);  // clean conflict
  EXPECT_EQ(counters_.device(sim::kSlow).bytes_written, before);
}

TEST_F(CacheFixture, PartialBlockAccessTouchesWholeBlock) {
  auto c = make();
  c.access(10, 4, false);  // 4 bytes -> one whole 64 B block
  EXPECT_EQ(c.stats().accesses, 1u);
  EXPECT_EQ(counters_.device(sim::kSlow).bytes_read, 64u);
}

TEST_F(CacheFixture, RangeSpanningBlocksCountsEachBlock) {
  auto c = make();
  c.access(60, 8, false);  // straddles two blocks
  EXPECT_EQ(c.stats().accesses, 2u);
}

TEST_F(CacheFixture, AccessTimeGrowsWithMissRate) {
  auto hot = make();
  hot.access(0, 4 * util::KiB, false);  // warm up
  const double hit_time = hot.access(0, 4 * util::KiB, false);

  auto cold = make();
  const double miss_time = cold.access(0, 4 * util::KiB, false);
  EXPECT_GT(miss_time, 2.0 * hit_time);
}

TEST_F(CacheFixture, DirtyMissCostsMoreThanCleanMiss) {
  auto a = make();
  a.access(0, 4 * util::KiB, true);  // fill dirty
  const double dirty_conflict = a.access(4 * util::KiB, 4 * util::KiB, false);

  auto b = make();
  b.access(0, 4 * util::KiB, false);  // fill clean
  const double clean_conflict = b.access(4 * util::KiB, 4 * util::KiB, false);
  EXPECT_GT(dirty_conflict, clean_conflict);
}

TEST_F(CacheFixture, AddressReuseAfterFreeHitsInCache) {
  // The Fig. 3/4 mechanism: eager freeing lets the allocator reuse
  // addresses whose blocks are still cached, turning misses into hits.
  auto c = make();
  c.access(0, 2 * util::KiB, true);   // "object A" written
  c.access(0, 2 * util::KiB, true);   // "object B" at the reused address
  EXPECT_EQ(c.stats().hits, 32u);
  EXPECT_EQ(c.stats().misses(), 32u);
}

TEST_F(CacheFixture, ZeroByteAccessIsFree) {
  auto c = make();
  EXPECT_DOUBLE_EQ(c.access(0, 0, false), 0.0);
  EXPECT_EQ(c.stats().accesses, 0u);
}

TEST_F(CacheFixture, StatRatesSumToOne) {
  auto c = make();
  c.access(0, 4 * util::KiB, true);
  c.access(2 * util::KiB, 4 * util::KiB, false);
  c.access(0, 1 * util::KiB, true);
  const auto& s = c.stats();
  EXPECT_NEAR(s.hit_rate() + s.clean_miss_rate() + s.dirty_miss_rate(), 1.0,
              1e-12);
}

TEST_F(CacheFixture, WholeChunkRunsAgreeWithPartialOnes) {
  // 2048 sets in chunks of 512: runs of 512 blocks from set 0 cover chunk 0
  // whole; the single block at set 100 touches part of it.
  const std::size_t chunk = 512 * 64;
  const std::size_t tag1 = 2048 * 64;  // same sets, the next tag
  auto c = make(tag1);
  const auto expect = [&](std::uint64_t hits, std::uint64_t clean,
                          std::uint64_t dirty, int step) {
    EXPECT_EQ(c.stats().hits, hits) << "step " << step;
    EXPECT_EQ(c.stats().clean_misses, clean) << "step " << step;
    EXPECT_EQ(c.stats().dirty_misses, dirty) << "step " << step;
  };
  c.access(0, chunk, /*write=*/true);  // cold: clean misses, chunk dirty
  expect(0, 512, 0, 1);
  c.access(0, chunk, false);  // all hit, dirty bits kept
  expect(512, 512, 0, 2);
  c.access(tag1 + 100 * 64, 64, false);  // evicts one dirty line
  expect(512, 512, 1, 3);
  c.access(0, chunk, false);  // 511 hits, set 100 now misses clean
  expect(1023, 513, 1, 4);
  c.access(tag1, chunk, false);  // set 100 is clean, the rest dirty
  expect(1023, 514, 512, 5);
  c.access(tag1, chunk, false);  // every line holds tag 1 clean
  expect(1535, 514, 512, 6);
  EXPECT_EQ(c.stats().accesses, 2561u);

  // Every block touches DRAM; 1026 misses fill from NVRAM into DRAM; 512
  // dirty victims go from DRAM back to NVRAM.
  EXPECT_EQ(counters_.device(sim::kFast).bytes_read, 4 * chunk + 64 + chunk);
  EXPECT_EQ(counters_.device(sim::kFast).bytes_written, chunk + 1026 * 64);
  EXPECT_EQ(counters_.device(sim::kSlow).bytes_read, 1026u * 64);
  EXPECT_EQ(counters_.device(sim::kSlow).bytes_written, chunk);
}

}  // namespace
}  // namespace ca::twolm
