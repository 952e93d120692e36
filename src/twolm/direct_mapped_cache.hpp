// Simulator of Intel's "memory mode" (2LM): DRAM as a direct-mapped,
// block-granularity, hardware-managed cache in front of NVRAM (paper §IV-A
// and Hildebrand et al. [4]).
//
// The workload runs against a single NVRAM-backed heap; every CPU access is
// filtered through this model.  The model captures the properties the paper
// blames for 2LM's inefficiency:
//   * cache-block-granularity metadata: every miss moves a whole block,
//     so sparse or short accesses suffer write amplification;
//   * write-allocate: even a write miss first fills the block from NVRAM;
//   * dirty evictions: conflict misses on dirty blocks cost an NVRAM write
//     at cache-block granularity -- the "haphazard" low-bandwidth NVRAM
//     traffic of §V-b (modeled with an efficiency factor < 1 relative to
//     the sequential bandwidth the CachedArrays copy engine achieves);
//   * no semantic insight: freed memory stays dirty in the cache, so the
//     hardware must conservatively write garbage back.
//
// Hit/clean-miss/dirty-miss statistics feed Fig. 4.
//
// Tag store.  Every line holds one packed word (tag, dirty, valid).  For
// the direct-mapped case (ways == 1) the sets are also grouped into chunks
// of kChunkSets (the last chunk may be partial), and `chunk_[c]` summarises
// chunk c:
//   * uniform: `chunk_[c]` is the one word every line of the chunk holds,
//     and the chunk's lines in `tags_` are stale (never read);
//   * mixed: `chunk_[c]` is kMixed, and `tags_` is authoritative.
// Every chunk starts uniform at word 0 (all invalid), so `tags_` is
// allocated without zero-filling and only mixed chunks' pages are touched.
// A run that covers a whole uniform chunk updates it in O(1).  A run that
// touches part of a uniform chunk first materialises it (writes the
// summary word into its lines) and marks it mixed; then, as in a mixed
// chunk and for ways > 1, the run walks the lines one by one.  After a
// walk over a whole mixed chunk the chunk is re-summarised if every line
// now holds the same word.
//
// Worst case.  A chunk turns uniform only at construction or by a walk over
// all of its lines, so each later materialisation (one write per line) is
// paid for by that construction or walk: the total work stays within a
// constant factor of a plain per-line walk, and a stream of random
// single-block accesses pays one extra load (the chunk's summary) per
// access.  The oracle is the
// per-block LRU `ReferenceCache` of tests/twolm/associativity_test.cpp,
// which every geometry, chunk-aligned and chunk-straddling streams
// included, must match count for count and byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/platform.hpp"
#include "telemetry/counters.hpp"

namespace ca::twolm {

/// Cache block (line) size in bytes: 2LM caches at 64 B line granularity.
inline constexpr std::size_t kBlockSize = 64;

/// Cache-driven NVRAM traffic is scattered (conflict-miss order, block
/// granularity) and reaches only a fraction of the device's sequential
/// bandwidth.  Izraelevitz et al. measure small random Optane accesses at
/// well under half of sequential throughput.
inline constexpr double kNvramReadEfficiency = 0.42;
inline constexpr double kNvramWriteEfficiency = 0.39;

struct CacheConfig {
  std::size_t capacity = 0;      ///< DRAM cache size in bytes
  std::size_t kernel_threads = 8;  ///< parallelism of the accessing kernels

  /// Associativity.  Intel's 2LM is direct-mapped (1); higher values model
  /// the "what if the DRAM cache had ways" ablation.  LRU replacement
  /// within a set.  Power of two, and capacity/kBlockSize must be a
  /// multiple of it.
  std::size_t ways = 1;
};

struct CacheStats {
  std::uint64_t accesses = 0;  ///< block-level accesses
  std::uint64_t hits = 0;
  std::uint64_t clean_misses = 0;
  std::uint64_t dirty_misses = 0;

  [[nodiscard]] std::uint64_t misses() const noexcept {
    return clean_misses + dirty_misses;
  }
  [[nodiscard]] double hit_rate() const noexcept {
    return accesses == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(accesses);
  }
  [[nodiscard]] double clean_miss_rate() const noexcept {
    return accesses == 0 ? 0.0
                         : static_cast<double>(clean_misses) /
                               static_cast<double>(accesses);
  }
  [[nodiscard]] double dirty_miss_rate() const noexcept {
    return accesses == 0 ? 0.0
                         : static_cast<double>(dirty_misses) /
                               static_cast<double>(accesses);
  }
};

class DirectMappedCache {
 public:
  /// `platform` supplies the DRAM and NVRAM timing; traffic is recorded to
  /// `counters` against `fast` (DRAM) and `slow` (NVRAM).
  DirectMappedCache(const CacheConfig& config, const sim::Platform& platform,
                    telemetry::TrafficCounters& counters,
                    sim::DeviceId fast = sim::kFast,
                    sim::DeviceId slow = sim::kSlow);

  /// Model a CPU access to the physical range [addr, addr+bytes) of the
  /// NVRAM-backed address space.  Records traffic and returns the modeled
  /// stall seconds (the caller charges them to its clock).  The range's
  /// blocks are walked as one run: set and tag are divided out once, then
  /// stepped block by block, or a whole chunk at a time where the run
  /// covers a uniform chunk.
  double access(std::size_t addr, std::size_t bytes, bool write);

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = CacheStats{}; }

  [[nodiscard]] const CacheConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t num_sets() const noexcept { return num_sets_; }

 private:
  // Tag store word: `tag << kTagShift | dirty << 1 | valid`.  An invalid
  // line is 0, and only a valid line is ever dirty.
  static constexpr std::uint64_t kValid = 1;
  static constexpr std::uint64_t kDirty = 2;
  static constexpr unsigned kTagShift = 2;
  /// Chunk summary of a mixed chunk: dirty but invalid, a word no line holds.
  static constexpr std::uint64_t kMixed = kDirty;
  static constexpr std::size_t kChunkSets = 512;

  /// Hits and dirty misses of one access, summed over its segments.
  struct Tally {
    std::uint64_t hits = 0;
    std::uint64_t dirty = 0;
  };

  /// ways == 1: sets [set, end) of one segment (tag word `want`), chunk by
  /// chunk: O(1) per whole uniform chunk, walk_lines elsewhere.
  void update_chunks(std::size_t set, std::size_t end, std::uint64_t want,
                     std::uint64_t touch, Tally& tally);

  /// The per-line walk over sets [set, end) of one segment.  Returns the
  /// word every touched line now holds if they all hold the same one, else
  /// kMixed.
  std::uint64_t walk_lines(std::size_t set, std::size_t end,
                           std::uint64_t want, std::uint64_t touch,
                           Tally& tally);

  /// For ways > 1: the way of `set` holding tag word `want`, else the
  /// set's least recently used way; stamps it most recently used.
  std::size_t touch_way(std::size_t set, std::uint64_t want);

  CacheConfig config_;
  const sim::Platform& platform_;
  telemetry::TrafficCounters& counters_;
  sim::DeviceId fast_;
  sim::DeviceId slow_;
  std::size_t num_sets_;
  /// num_sets x ways lines, set-major.  Zeroed for ways > 1; for ways == 1
  /// uninitialised, since every chunk starts uniform.
  std::unique_ptr<std::uint64_t[]> tags_;
  /// ways == 1: one summary word per chunk of kChunkSets sets; else empty.
  std::vector<std::uint64_t> chunk_;
  /// Last-touch stamp per line for within-set LRU; empty when ways == 1.
  /// Touched lines get stamps from 1 up, so an invalid line (stamp 0) is
  /// always the least recently used way of its set.
  std::vector<std::uint64_t> lru_;
  std::uint64_t tick_ = 0;

  // Cached per-access bandwidth figures (constant per configuration).
  double dram_bw_;
  double nvram_fill_bw_;
  double nvram_writeback_bw_;

  CacheStats stats_;
};

}  // namespace ca::twolm
