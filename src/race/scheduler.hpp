// Deterministic cooperative scheduler for schedule exploration (ca::race).
//
// Tasks are real OS threads, but exactly one runs at a time: every
// instrumented synchronization operation (race/sync.hpp) is a *schedule
// point* where the scheduler may hand the execution token to another
// runnable task.  Decisions are drawn from a seeded PRNG (random-walk) or
// from PCT-style priorities, so a schedule is a pure function of the seed:
// replaying a seed replays the interleaving, instruction for instruction.
//
// Blocking primitives are modeled, not real: a task that would block on a
// mutex/condition variable/join parks in the scheduler until the model
// makes it runnable again, which is what lets the explorer drive the
// *modeled* world (simulated clock, transfer retirement) through orderings
// the host OS would essentially never produce.
//
// Threads created while a task runs (ThreadPool workers, race::thread) are
// registered by their spawner (prepare_task), which draws the task id and
// PCT priority in spawn order; the new thread then adopts that task by id.
// The task set and every task's identity at each decision point are thus a
// deterministic function of the program, not of OS startup timing: a task
// granted the token before its thread reaches the scheduler simply runs on
// arrival.
//
// A genuine deadlock of the model (every task blocked) or a livelock
// (max_steps exceeded) prints the seed and every task's state, then
// aborts: those are findings, and the seed reproduces them.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "race/vector_clock.hpp"

namespace ca::race {

class Scheduler {
 public:
  enum class Strategy { kRandomWalk, kPct };

  struct Options {
    std::uint64_t seed = 1;
    Strategy strategy = Strategy::kRandomWalk;
    /// PCT depth parameter d: d-1 priority change points per schedule.
    int pct_depth = 3;
    /// Livelock bound: abort past this many schedule decisions.
    std::size_t max_steps = 200000;
  };

  struct Result {
    bool completed = false;
    std::size_t steps = 0;
    std::size_t tasks = 0;
    /// FNV-1a over the sequence of scheduling decisions: two runs explored
    /// the same interleaving iff their hashes match.
    std::uint64_t schedule_hash = 0xcbf29ce484222325ull;
    std::vector<std::string> task_errors;
  };

  /// Run `root` as task 0 under a fresh runtime/scheduler and drive it (and
  /// every thread it spawns) through one seed-determined interleaving.
  static Result run(const Options& options, const std::function<void()>& root);

  /// The scheduler controlling the calling thread (nullptr when the thread
  /// is not a task of an active exploration).
  static Scheduler* current() noexcept;

  // --- schedule points (called by race/sync.hpp on the running task) --------

  void yield_point();
  void mutex_lock(const void* m);
  bool mutex_try_lock(const void* m);
  void mutex_unlock(const void* m);
  void cv_wait(const void* cv, const void* m);
  void cv_notify(const void* cv, bool all);

  // --- task lifecycle --------------------------------------------------------

  /// Spawner side: register the task the next spawned thread will run and
  /// return its id (== ca::race::Tid).  Called by the running task (or by
  /// run() for the root) before the thread is created, so ids and
  /// priorities follow spawn order.  The spawner must create the thread
  /// before its next schedule point: the task is runnable from now on.
  [[nodiscard]] Tid prepare_task();

  /// Thread side: bind the calling thread to task `tid` (from
  /// prepare_task) and park until first scheduled.
  void adopt_current_thread(Tid tid);

  /// Mark the calling task finished, wake its joiners, hand off the token.
  /// The thread must not touch instrumented state afterwards.
  void task_finished();

  /// Model join on task `tid`: parks the caller until that task calls
  /// task_finished().  No-op for unknown or already finished tasks; the
  /// caller then performs the real std::thread::join, which completes
  /// promptly.
  void join_task(Tid tid);

 private:
  struct Task;

  explicit Scheduler(const Options& options);
  ~Scheduler();

  Task* self() const noexcept;
  Task* find_locked(Tid tid) const noexcept;
  Task* choose_locked();
  void grant_locked(Task* t);
  static void park(Task* t);
  /// Hand the token onward after `self` updated its state.  Returns true
  /// when the caller must park (someone else got the token).
  bool schedule_from_locked(Task* current);
  void finish_if_done_locked();
  [[noreturn]] void stuck_abort_locked(const char* what);
  void wake_mutex_waiters_locked(const void* m);
  void acquire_or_block_locked(std::unique_lock<std::mutex>& lk,
                               const void* m);
  std::uint64_t rng_next();

  Options options_;
  std::mutex smu_;
  std::condition_variable done_cv_;
  std::vector<std::unique_ptr<Task>> tasks_;
  std::unordered_map<const void*, Task*> mutex_owner_;
  std::uint64_t rng_state_ = 0;
  std::size_t steps_ = 0;
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
  bool done_ = false;
  std::vector<std::string> errors_;
  // PCT state
  std::vector<std::size_t> switch_points_;  ///< sorted, ascending
  std::size_t next_switch_ = 0;
  std::uint64_t low_priority_ = 1u << 20;
  Task* last_chosen_ = nullptr;
};

}  // namespace ca::race
