// The ca::race runtime: task registry, happens-before state, and shadow
// memory for the vector-clock race detector.
//
// The runtime is deliberately independent of the schedule explorer: with
// CA_RACE compiled in, the instrumented shims (race/sync.hpp) and access
// hooks (race/access.hpp) feed it from ordinary multi-threaded runs too,
// where it acts as a portable, deterministic-on-replay TSan-lite.  Under
// the cooperative scheduler (race/scheduler.hpp) the same state machine
// observes every explored interleaving.
//
// All runtime state is guarded by one internal std::mutex; the hooks are
// short critical sections.  This serializes instrumented operations, which
// is exactly what a controlled exploration wants and an acceptable tax for
// an instrumented build.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "race/report.hpp"
#include "race/vector_clock.hpp"

namespace ca::race {

class Runtime {
 public:
  static Runtime& instance();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Dense id of the calling thread, registering it on first use.  Ids are
  /// assigned in registration order and restart from 0 after reset().
  Tid current_tid();

  /// Register an id for a thread that does not exist yet: a spawner
  /// reserves its child's id so ids follow spawn order.  The new thread
  /// claims it with bind_tid() before any other runtime call.
  Tid reserve_tid();
  void bind_tid(Tid tid);

  /// Drop every task registration, happens-before edge, shadow cell and
  /// pending report.  Called by the explorer between schedules.
  void reset();

  // --- happens-before edges ------------------------------------------------

  /// Acquire edge from a synchronization object (mutex lock, cv wake,
  /// atomic load): the calling task's clock absorbs the object's.
  void acquire(const void* obj);

  /// Release edge into a synchronization object (mutex unlock, cv notify,
  /// atomic store): the object's clock absorbs the caller's, and the
  /// caller's own component ticks so later accesses are not covered.
  void release(const void* obj);

  /// Read-modify-write on an atomic: acquire + release in one step.
  void acq_rel(const void* obj);

  /// Forget a synchronization object (its storage is being destroyed, so
  /// the address may be reused by an unrelated object).
  void forget_sync(const void* obj);

  /// Fork edge: the spawning task snapshots its clock under a token; the
  /// spawned task binds the token so everything before the spawn
  /// happens-before everything it does.
  std::uint64_t prepare_fork();
  void bind_fork(std::uint64_t token);

  /// Join edge: the caller absorbs everything `child` did.
  void join_with(Tid child);

  // --- data accesses ---------------------------------------------------------

  /// Record a `kind` access to [addr, addr+size) labeled `label` (must be a
  /// string with static storage duration).  Conflicting unordered accesses
  /// append a RaceReport.
  void record_access(const void* addr, std::size_t size, AccessKind kind,
                     const char* label);

  // --- findings ---------------------------------------------------------------

  [[nodiscard]] std::size_t report_count();
  std::vector<RaceReport> take_reports();

 private:
  Runtime() = default;

  struct Shadow {
    std::uintptr_t base = 0;
    std::size_t size = 0;
    bool has_write = false;
    bool freed = false;
    Tid w_tid = 0;
    std::uint64_t w_clk = 0;
    AccessKind w_kind = AccessKind::kWrite;
    const char* w_label = "";
    VectorClock reads;  ///< per-tid own clock of reads since the last write
    const char* r_label = "";
  };

  Tid current_tid_locked();
  Tid new_tid_locked();
  VectorClock& vc_of_locked(Tid tid);
  void report_locked(const Shadow& s, AccessKind prior, Tid prior_tid,
                     const char* prior_label, AccessKind current, Tid tid,
                     const char* label, std::uintptr_t addr, std::size_t size,
                     bool use_after_free);

  std::mutex mu_;
  std::uint64_t generation_ = 1;
  std::vector<VectorClock> vc_;  ///< by tid
  std::unordered_map<const void*, VectorClock> sync_vc_;
  std::unordered_map<std::uint64_t, VectorClock> forks_;
  std::uint64_t next_fork_ = 1;
  std::vector<Shadow> shadows_;
  std::vector<RaceReport> reports_;
};

}  // namespace ca::race
