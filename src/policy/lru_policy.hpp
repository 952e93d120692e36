// The reference policy for DRAM/NVRAM CNN training (paper §III-D / §IV).
//
// Placement rules, keyed to the device characteristics of a Cascade Lake
// DRAM+NVRAM machine (NVRAM reads are acceptable, NVRAM writes are not):
//   * will_write  -> make sure the primary is in fast memory, forcibly
//                    evicting colder objects if needed (Listing 2);
//   * will_read   -> prefetch into fast memory only when the P toggle is
//                    on; otherwise serve reads from wherever the data is;
//   * archive     -> do not evict eagerly, just move the object to the
//                    front of the eviction queue;
//   * retire      -> with the M toggle, release storage immediately;
//                    without it, deprioritize and let the GC reclaim.
//
// Optimization toggles (paper §IV):
//   L  local allocation: new objects are placed directly in fast memory.
//      With L off the policy emulates a true cache: objects are born in
//      slow memory and *every* access (read or write) first faults them
//      into fast memory -- the compulsory miss of 2LM (mode CA:0).
//   M  eager retire, as above.
//   P  prefetch on will_read, as above.
//
// The policy moves data between the platform's fast tier (sim::kFast) and
// slow tier (sim::kSlow).  Eviction candidates are tracked on an LRU list
// of objects whose primary is in fast memory; `archive` moves an object to
// the cold end.  The policy maintains the paper's invariant: an object with
// a fast-memory region has that region as its primary.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "policy/policy.hpp"
#include "sim/platform.hpp"
#include "util/align.hpp"
#include "util/intrusive_list.hpp"

namespace ca::policy {

struct LruPolicyConfig {
  bool local_alloc = true;   ///< L: allocate new objects directly in fast
  bool eager_retire = true;  ///< M: free storage on retire
  bool prefetch = false;     ///< P: move data to fast on will_read

  /// Objects smaller than this are pinned to fast memory and never
  /// migrated (when possible): below the migration granularity the fixed
  /// per-transfer overhead exceeds any bandwidth benefit, and the paper's
  /// object-level approach explicitly targets "relatively large (> 100s of
  /// KiB)" tensors (SIII-C).  Applies in every mode, including the
  /// true-cache emulation.  Set to 0 to disable.
  std::size_t min_migratable = 64 * util::KiB;

  /// Honor will_read_partial: an object about to be read only
  /// fractionally (less than LruPolicy::kSparseReadFraction of its size) is
  /// served in place instead of being migrated -- the flexibility the
  /// paper's SVI calls for on DLRM-style sparse workloads.  When false,
  /// partial reads are treated as full reads (the naive behaviour the
  /// extension fixes).
  bool sparse_aware = true;

  /// Move data on the asynchronous mover (paper SV-c future work).
  /// Prefetches overlap with execution, and consumers stall only for the
  /// unfinished remainder at first use.  Eviction writebacks are
  /// write-behind: they are scheduled on the mover's writeback channels
  /// instead of stalling the evictor, the freed fast-memory window is
  /// reused immediately, and the slow copy's ready_at carries the
  /// dependency for any later consumer.
  bool async_movement = false;

  /// Issue asynchronous prefetches for up to this many objects *ahead* of
  /// the one being read, using the archive trace: the forward pass archives
  /// objects in use order, and the backward pass consumes them roughly in
  /// reverse, so the objects archived just before the current one are
  /// needed next.  0 disables look-ahead.
  std::size_t prefetch_distance = 0;
};

class LruPolicy final : public Policy {
 public:
  struct OpStats {
    std::uint64_t evictions = 0;
    std::uint64_t eviction_bytes = 0;
    std::uint64_t elided_writebacks = 0;  ///< clean evicts: no copy needed
    std::uint64_t prefetches = 0;
    std::uint64_t prefetch_bytes = 0;
    std::uint64_t forced_reclaims = 0;  ///< evictfrom invocations
    std::uint64_t retires_honored = 0;
    std::uint64_t gc_pressure_calls = 0;
    std::uint64_t sparse_reads_in_place = 0;  ///< partial reads not migrated
    std::uint64_t async_writebacks = 0;       ///< write-behind evictions
    std::uint64_t prefetch_ahead = 0;         ///< look-ahead prefetches issued
    std::uint64_t prefetch_ahead_bytes = 0;
    std::uint64_t gradient_hot_allocs = 0;  ///< gradient buckets born fast
    std::uint64_t gradient_demotes = 0;  ///< archived gradients evicted eagerly
  };

  /// A partial read of at least this fraction of an object is treated as
  /// a full read (see LruPolicyConfig::sparse_aware).
  static constexpr double kSparseReadFraction = 0.5;

  LruPolicy(dm::DataManager& dm, LruPolicyConfig config);

  dm::Region& place_new(dm::Object& object) override;
  void will_use(dm::Object& object) override;
  void will_read(dm::Object& object) override;
  void will_write(dm::Object& object) override;
  void will_read_partial(dm::Object& object, std::size_t bytes) override;
  void archive(dm::Object& object) override;
  bool retire(dm::Object& object) override;
  void on_destroy(dm::Object& object) override;
  void begin_kernel(std::span<dm::Object* const> args) override;
  void end_kernel() override;
  void set_pressure_handler(PressureHandler handler) override;

  [[nodiscard]] const OpStats& op_stats() const noexcept { return stats_; }
  [[nodiscard]] const LruPolicyConfig& config() const noexcept {
    return config_;
  }

  /// Number of objects currently resident (primary) in fast memory.
  [[nodiscard]] std::size_t fast_resident_objects() const noexcept {
    return lru_.size();
  }

  /// Evict one object from fast to slow memory (paper Listing 1).  Public
  /// so tests and custom policies can drive it directly.
  void evict(dm::Object& object);

  /// Ensure the object's primary is in fast memory (paper Listing 2).
  /// Returns true on success; false when fast memory cannot hold it.
  bool prefetch(dm::Object& object, bool force);

 private:
  struct Node {
    dm::Object* object = nullptr;
    util::ListHook lru_hook;
    bool in_flight = false;  ///< argument of the kernel being staged
  };

  Node& node(dm::Object& object);
  void touch(Node& n);
  void remove_from_lru(Node& n);

  /// Prefetch with an explicit choice of mover (sync vs async); the public
  /// `prefetch` uses the configured default.
  bool prefetch_impl(dm::Object& object, bool force, bool async);

  /// Append to the archive trace; a re-archive of a recorded object marks
  /// the start of a new forward pass and resets the trace.
  void record_archive(dm::Object& object);

  /// Issue asynchronous look-ahead prefetches for the objects archived just
  /// before `object` (the ones the backward pass needs next).
  void prefetch_ahead(dm::Object& object);

  /// Allocate on fast, forcing room by eviction if needed.  Returns nullptr
  /// if the object simply cannot fit.
  dm::Region* allocate_fast_forced(std::size_t size);

  /// Allocate on slow; on failure asks the runtime to GC and retries, then
  /// throws OutOfMemoryError.
  dm::Region& allocate_slow_checked(std::size_t size);

  /// Eviction callback handed to DM.evictfrom.
  bool try_displace(dm::Region& region);

  dm::DataManager& dm_;
  LruPolicyConfig config_;
  PressureHandler pressure_;
  OpStats stats_;
  std::unordered_map<const dm::Object*, Node> nodes_;
  /// Nodes flagged in_flight since the last end_kernel, each once: the
  /// bracket costs O(args), not O(nodes_).
  std::vector<Node*> in_flight_;
  util::IntrusiveList<Node, &Node::lru_hook> lru_;
  std::vector<dm::Object*> archive_trace_;  ///< forward-pass archive order
  std::unordered_map<const dm::Object*, std::size_t> trace_pos_;
};

}  // namespace ca::policy
