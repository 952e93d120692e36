// Tests for the set-associative extension of the 2LM cache model, plus a
// property test checking the simulator against an independent reference
// implementation on random access streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <ostream>
#include <string>
#include <vector>

#include "twolm/direct_mapped_cache.hpp"
#include "util/align.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ca::twolm {
namespace {

class AssocFixture : public ::testing::Test {
 protected:
  AssocFixture()
      : platform_(sim::Platform::cascade_lake_scaled(4 * util::KiB,
                                                     64 * util::KiB)) {}

  DirectMappedCache make(std::size_t ways,
                         std::size_t capacity = 4 * util::KiB) {
    CacheConfig cfg;
    cfg.capacity = capacity;
    cfg.ways = ways;
    return DirectMappedCache(cfg, platform_, counters_);
  }

  sim::Platform platform_;
  telemetry::TrafficCounters counters_;
};

TEST_F(AssocFixture, GeometryAccountsForWays) {
  auto c = make(4);
  EXPECT_EQ(c.num_sets(), 16u);  // 64 blocks / 4 ways
}

TEST_F(AssocFixture, TwoWayResolvesPingPongConflict) {
  // Addresses 0 and capacity alias in a direct-mapped cache; with 2 ways
  // they coexist.
  auto direct = make(1);
  auto assoc = make(2);
  for (int i = 0; i < 10; ++i) {
    direct.access(0, 64, false);
    direct.access(4 * util::KiB, 64, false);
    assoc.access(0, 64, false);
    assoc.access(4 * util::KiB, 64, false);
  }
  EXPECT_EQ(direct.stats().hits, 0u);       // pure ping-pong
  EXPECT_EQ(assoc.stats().hits, 18u);       // everything after the fills
}

TEST_F(AssocFixture, LruEvictsTheColdestWay) {
  auto c = make(2);  // 32 sets; set 0 aliases at multiples of 32*64 = 2 KiB
  c.access(0 * 2048, 1, false);  // A -> set 0
  c.access(1 * 2048, 1, false);  // B -> set 0 (both ways full)
  c.access(0 * 2048, 1, false);  // touch A: B becomes LRU
  c.access(2 * 2048, 1, false);  // C evicts B
  c.access(0 * 2048, 1, false);  // A still resident
  EXPECT_EQ(c.stats().hits, 2u);
  c.access(1 * 2048, 1, false);  // B was evicted: miss
  EXPECT_EQ(c.stats().hits, 2u);
}

TEST_F(AssocFixture, FullyAssociativeHoldsAnyFittingWorkingSet) {
  // With ways == blocks (one set, pure LRU) any working set that fits is
  // all-hits after the cold fills, regardless of address alignment --
  // while the direct-mapped cache thrashes on the aliased layout.
  auto fully = make(64);  // 4 KiB / 64 B = 64 blocks, single set
  auto direct = make(1);
  // 32 blocks, all aliasing to a handful of direct-mapped sets.
  std::vector<std::size_t> addrs;
  for (std::size_t i = 0; i < 32; ++i) addrs.push_back(i * 4 * util::KiB);
  for (int round = 0; round < 10; ++round) {
    for (const auto a : addrs) {
      fully.access(a, 64, false);
      direct.access(a, 64, false);
    }
  }
  EXPECT_EQ(fully.stats().misses(), 32u);  // cold fills only
  EXPECT_EQ(fully.stats().hits, 32u * 9u);
  EXPECT_EQ(direct.stats().hits, 0u);  // every access aliases set 0
}

TEST_F(AssocFixture, InvalidGeometryRejected) {
  CacheConfig cfg;
  cfg.capacity = 4 * util::KiB;
  cfg.ways = 3;  // not a power of two
  EXPECT_THROW(DirectMappedCache(cfg, platform_, counters_), ca::InternalError);
}

// --- property test against a reference model ------------------------------

/// A deliberately simple reference: per-set vector of (tag, dirty) in LRU
/// order, no stats trickery, no bandwidth model.
class ReferenceCache {
 public:
  ReferenceCache(std::size_t sets, std::size_t ways)
      : sets_(sets), ways_(ways), lines_(sets) {}

  /// Returns {hit, clean_miss, dirty_miss} for one block access.
  std::array<bool, 3> access(std::size_t block, bool write) {
    auto& set = lines_[block % sets_];
    const std::uint64_t tag = block / sets_;
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (it->first == tag) {
        auto entry = *it;
        set.erase(it);
        entry.second = entry.second || write;
        set.push_back(entry);  // MRU at the back
        return {true, false, false};
      }
    }
    bool dirty_evict = false;
    if (set.size() == ways_) {
      dirty_evict = set.front().second;
      set.erase(set.begin());
    }
    set.push_back({tag, write});
    return {false, !dirty_evict, dirty_evict};
  }

 private:
  std::size_t sets_;
  std::size_t ways_;
  std::vector<std::vector<std::pair<std::uint64_t, bool>>> lines_;
};

/// One random-stream case: a cache of `sets` sets (0: the 4 KiB cache, 64
/// blocks) and accesses of 1..max_blocks blocks from unaligned addresses.
/// With `chunk_starts`, every run starts at a set that begins one of the
/// cache's 512-set chunks.
struct StreamCase {
  std::size_t ways;
  std::uint64_t seed;
  std::size_t sets = 0;
  std::size_t max_blocks = 1;
  bool chunk_starts = false;
};

void PrintTo(const StreamCase& c, std::ostream* os) {
  *os << '(' << c.ways << ", " << c.seed;
  if (c.sets != 0) *os << ", " << c.sets << ", " << c.max_blocks;
  if (c.chunk_starts) *os << ", chunk starts";
  *os << ')';
}

class CacheProperty : public ::testing::TestWithParam<StreamCase> {};

TEST_P(CacheProperty, MatchesReferenceOnRandomStreams) {
  const StreamCase& param = GetParam();
  const std::size_t ways = param.ways;
  const std::size_t bs = kBlockSize;
  sim::Platform platform =
      sim::Platform::cascade_lake_scaled(4 * util::KiB, 64 * util::KiB);
  telemetry::TrafficCounters counters;
  CacheConfig cfg;
  cfg.capacity = param.sets == 0 ? 4 * util::KiB : param.sets * ways * bs;
  cfg.ways = ways;
  DirectMappedCache cache(cfg, platform, counters);
  ReferenceCache ref(cache.num_sets(), ways);

  // The documented cost model, restated: every block touches DRAM, misses
  // fill from NVRAM into DRAM, dirty victims go from DRAM back to NVRAM.
  const std::size_t t = cfg.kernel_threads;
  const auto& dram = platform.spec(sim::kFast);
  const auto& nvram = platform.spec(sim::kSlow);
  const double dram_bw = std::min(dram.read_bw.at(t), dram.write_bw.at(t));
  const double fill_bw = nvram.read_bw.at(t) * kNvramReadEfficiency;
  const double wb_bw = nvram.write_bw_nt.at(t) * kNvramWriteEfficiency;

  util::Xoshiro256 rng(param.seed);
  const std::size_t sets = cache.num_sets();
  const std::size_t span = 8 * sets * ways;  // blocks addressed
  const std::size_t chunks = (sets + 511) / 512;
  std::uint64_t hits = 0, clean = 0, dirty = 0;
  telemetry::DeviceTraffic fast, slow;
  double seconds = 0.0, want_seconds = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const std::size_t first =
        param.chunk_starts ? rng.bounded(8) * sets + rng.bounded(chunks) * 512
                           : rng.bounded(span);
    const std::size_t n = 1 + rng.bounded(param.max_blocks);
    std::size_t lo = rng.bounded(bs);
    std::size_t hi = rng.bounded(bs);
    if (n == 1 && hi < lo) std::swap(lo, hi);
    const std::size_t addr = first * bs + lo;
    const std::size_t bytes = (first + n - 1) * bs + hi + 1 - addr;
    const bool write = rng.uniform() < 0.4;
    seconds += cache.access(addr, bytes, write);

    std::uint64_t h = 0, c = 0, d = 0;
    for (std::size_t b = first; b < first + n; ++b) {
      const auto [bh, bc, bd] = ref.access(b, write);
      h += bh;
      c += bc;
      d += bd;
    }
    hits += h;
    clean += c;
    dirty += d;
    const std::uint64_t touched = n * bs;
    const std::uint64_t filled = (c + d) * bs;
    const std::uint64_t written_back = d * bs;
    (write ? fast.bytes_written : fast.bytes_read) += touched;
    fast.bytes_written += filled;
    fast.bytes_read += written_back;
    slow.bytes_read += filled;
    slow.bytes_written += written_back;
    want_seconds += static_cast<double>(touched) / dram_bw +
                    static_cast<double>(filled) * (1.0 / fill_bw + 1.0 / dram_bw) +
                    static_cast<double>(written_back) *
                        (1.0 / wb_bw + 1.0 / dram_bw);
    if (i % 500 == 0) {
      ASSERT_EQ(cache.stats().hits, hits) << "step " << i;
      ASSERT_EQ(cache.stats().clean_misses, clean) << "step " << i;
      ASSERT_EQ(cache.stats().dirty_misses, dirty) << "step " << i;
    }
  }
  EXPECT_EQ(cache.stats().hits, hits);
  EXPECT_EQ(cache.stats().clean_misses, clean);
  EXPECT_EQ(cache.stats().dirty_misses, dirty);
  EXPECT_EQ(cache.stats().accesses, hits + clean + dirty);
  EXPECT_EQ(counters.device(sim::kFast).bytes_read, fast.bytes_read);
  EXPECT_EQ(counters.device(sim::kFast).bytes_written, fast.bytes_written);
  EXPECT_EQ(counters.device(sim::kSlow).bytes_read, slow.bytes_read);
  EXPECT_EQ(counters.device(sim::kSlow).bytes_written, slow.bytes_written);
  EXPECT_DOUBLE_EQ(seconds, want_seconds);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, CacheProperty,
    ::testing::Values(StreamCase{1, 1}, StreamCase{1, 2}, StreamCase{2, 3},
                      StreamCase{2, 4}, StreamCase{4, 5}, StreamCase{8, 6},
                      // Runs of 1-300 blocks over set counts that are not
                      // powers of two: every run wraps the set index.
                      StreamCase{1, 7, 67, 300}, StreamCase{1, 8, 3072, 300},
                      StreamCase{2, 9, 36, 300}, StreamCase{4, 10, 24, 300},
                      StreamCase{8, 11, 5, 300},
                      // Runs of 1-3000 blocks that cover and straddle whole
                      // 512-set chunks, with a partial last chunk (1300
                      // sets) and without (2048).
                      StreamCase{1, 12, 1300, 3000},
                      StreamCase{1, 13, 2048, 3000},
                      StreamCase{1, 14, 1300, 3000, true}),
    [](const auto& info) {
      const StreamCase& c = info.param;
      const std::string geometry =
          c.sets == 0 ? "" : "sets" + std::to_string(c.sets) + "_";
      return geometry + "ways" + std::to_string(c.ways) + "_seed" +
             std::to_string(c.seed) + (c.chunk_starts ? "_chunkstarts" : "");
    });

}  // namespace
}  // namespace ca::twolm
