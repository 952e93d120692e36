#include "twolm/direct_mapped_cache.hpp"

#include <algorithm>
#include <memory>

#include "util/align.hpp"
#include "util/error.hpp"

namespace ca::twolm {

DirectMappedCache::DirectMappedCache(const CacheConfig& config,
                                     const sim::Platform& platform,
                                     telemetry::TrafficCounters& counters,
                                     sim::DeviceId fast, sim::DeviceId slow)
    : config_(config),
      platform_(platform),
      counters_(counters),
      fast_(fast),
      slow_(slow) {
  CA_CHECK(config_.capacity >= kBlockSize,
           "cache must hold at least one block");
  CA_CHECK(config_.ways >= 1 && util::is_pow2(config_.ways),
           "associativity must be a power of two");
  const std::size_t blocks = config_.capacity / kBlockSize;
  CA_CHECK(blocks % config_.ways == 0,
           "capacity/kBlockSize must be a multiple of the associativity");
  num_sets_ = blocks / config_.ways;
  if (config_.ways == 1) {
    tags_ = std::make_unique_for_overwrite<std::uint64_t[]>(blocks);
    chunk_.assign((num_sets_ + kChunkSets - 1) / kChunkSets, 0);
  } else {
    tags_ = std::make_unique<std::uint64_t[]>(blocks);
    lru_.assign(blocks, 0);
  }

  const std::size_t t = config_.kernel_threads;
  const auto& dram = platform_.spec(fast_);
  const auto& nvram = platform_.spec(slow_);
  // DRAM side of hits, fills and writeback reads.
  dram_bw_ = std::min(dram.read_bw.at(t), dram.write_bw.at(t));
  // NVRAM fills and writebacks run at block granularity in conflict-miss
  // order: a fraction of sequential bandwidth.
  nvram_fill_bw_ = nvram.read_bw.at(t) * kNvramReadEfficiency;
  // Writebacks drain through the write-pending queue (streaming stores),
  // but in conflict-miss order rather than the copy engine's shaped runs.
  nvram_writeback_bw_ =
      nvram.write_bw_nt.at(t) * kNvramWriteEfficiency;
}

double DirectMappedCache::access(std::size_t addr, std::size_t bytes,
                                 bool write) {
  if (bytes == 0) return 0.0;
  constexpr std::size_t bs = kBlockSize;
  const std::size_t first = addr / bs;
  const std::size_t last = (addr + bytes - 1) / bs;
  const std::uint64_t blocks = last - first + 1;

  // Consecutive blocks map to consecutive sets, so the run is walked in
  // segments that end where the set index wraps to 0.  Within a segment
  // the tag is constant; the next segment's tag is one higher.
  const std::size_t nsets = num_sets_;
  std::size_t set = first % nsets;
  std::uint64_t want = ((first / nsets) << kTagShift) | kValid;
  const std::uint64_t touch = write ? kDirty : 0;

  Tally tally;
  for (std::uint64_t left = blocks; left > 0;) {
    const std::size_t len = std::min<std::uint64_t>(left, nsets - set);
    if (config_.ways == 1) {
      update_chunks(set, set + len, want, touch, tally);
    } else {
      walk_lines(set, set + len, want, touch, tally);
    }
    left -= len;
    set = 0;
    want += std::uint64_t{1} << kTagShift;
  }

  const std::uint64_t dirty = tally.dirty;
  const std::uint64_t clean = blocks - tally.hits - dirty;
  const std::uint64_t misses = clean + dirty;
  stats_.accesses += blocks;
  stats_.hits += tally.hits;
  stats_.clean_misses += clean;
  stats_.dirty_misses += dirty;

  // Traffic.  Every block-level access touches DRAM (the cache).  Misses
  // fill from NVRAM (write-allocate: reads *and* writes fill).  Dirty
  // victims are read from DRAM and written back to NVRAM.
  const std::uint64_t access_bytes = blocks * bs;
  const std::uint64_t fill_bytes = misses * bs;
  const std::uint64_t wb_bytes = dirty * bs;

  if (write) {
    counters_.record_write(fast_, access_bytes);
  } else {
    counters_.record_read(fast_, access_bytes);
  }
  if (fill_bytes > 0) {
    counters_.record_read(slow_, fill_bytes);
    counters_.record_write(fast_, fill_bytes);
  }
  if (wb_bytes > 0) {
    counters_.record_read(fast_, wb_bytes);
    counters_.record_write(slow_, wb_bytes);
  }

  return static_cast<double>(access_bytes) / dram_bw_ +
         static_cast<double>(fill_bytes) *
             (1.0 / nvram_fill_bw_ + 1.0 / dram_bw_) +
         static_cast<double>(wb_bytes) *
             (1.0 / nvram_writeback_bw_ + 1.0 / dram_bw_);
}

// Both helpers are inline so that access() makes no call on the
// single-block path, which random streams take every time.
inline void DirectMappedCache::update_chunks(std::size_t set,
                                             std::size_t end,
                                             std::uint64_t want,
                                             std::uint64_t touch,
                                             Tally& tally) {
  while (set < end) {
    const std::size_t c = set / kChunkSets;
    const std::size_t lo = c * kChunkSets;
    const std::size_t hi = std::min(lo + kChunkSets, num_sets_);
    const std::size_t stop = std::min(end, hi);
    const bool whole = set == lo && stop == hi;
    std::uint64_t& summary = chunk_[c];
    if (summary != kMixed) {
      if (whole) {
        // Every line holds `summary`: one hit or one miss, times n.
        const std::uint64_t n = hi - lo;
        if ((summary & ~kDirty) == want) {
          tally.hits += n;
          summary |= touch;
        } else {
          tally.dirty += (summary & kDirty) != 0 ? n : 0;
          summary = want | touch;
        }
        set = stop;
        continue;
      }
      std::fill(tags_.get() + lo, tags_.get() + hi, summary);
      summary = kMixed;
    }
    const std::uint64_t same = walk_lines(set, stop, want, touch, tally);
    if (whole) summary = same;
    set = stop;
  }
}

inline std::uint64_t DirectMappedCache::walk_lines(std::size_t set,
                                                   std::size_t end,
                                                   std::uint64_t want,
                                                   std::uint64_t touch,
                                                   Tally& tally) {
  const std::size_t ways = config_.ways;
  std::uint64_t hits = 0;
  std::uint64_t dirty = 0;
  // The touched lines all hold one word iff their OR equals their AND.
  std::uint64_t any = 0;
  std::uint64_t all = ~std::uint64_t{0};
  for (; set < end; ++set) {
    std::uint64_t& line =
        tags_[set * ways + (ways == 1 ? 0 : touch_way(set, want))];
    // Branch-free: a hit keeps the line's dirty bit; a miss refills it
    // clean and is a dirty miss if the victim was dirty.
    const std::uint64_t old = line;
    const std::uint64_t miss = (old & ~kDirty) != want;
    const std::uint64_t was_dirty = (old & kDirty) >> 1;
    hits += miss ^ 1;
    dirty += miss & was_dirty;
    line = want | touch | (((miss ^ 1) & was_dirty) << 1);
    any |= line;
    all &= line;
  }
  tally.hits += hits;
  tally.dirty += dirty;
  return any == all ? any : kMixed;
}

std::size_t DirectMappedCache::touch_way(std::size_t set,
                                         std::uint64_t want) {
  const std::size_t base = set * config_.ways;
  std::size_t way = 0;
  for (std::size_t w = 0; w < config_.ways; ++w) {
    if ((tags_[base + w] & ~kDirty) == want) {
      way = w;
      break;
    }
    if (lru_[base + w] < lru_[base + way]) way = w;
  }
  lru_[base + way] = ++tick_;
  return way;
}

}  // namespace ca::twolm
