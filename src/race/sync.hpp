// Instrumented synchronization shims (ca::race) and the ca::sync aliases
// the rest of the tree uses.
//
// With CA_RACE defined (CMake option -DCA_RACE=ON), `ca::sync::mutex`,
// `ca::sync::condition_variable` and `ca::sync::atomic<T>` are the
// instrumented race:: types: every operation records a happens-before edge
// with the vector-clock runtime and, under an active schedule explorer, is
// a deterministic preemption point.  Without CA_RACE they are thin
// zero-overhead wrappers over the std:: types that exist only to carry
// Clang thread-safety annotations (util/thread_annotations.hpp).
//
// Locking always goes through `ca::sync::lock` (an annotated scoped lock
// that the condition variable shims know how to wait on) so Clang's
// -Wthread-safety analysis can follow every acquire/release in the tree.
//
// Thread lifecycle: a spawner calls `sync::before_spawn()` and hands the
// token into the new thread, whose body opens a `sync::task_scope`; the
// spawner joins with `sync::join_thread(t, token)`.  Under the explorer
// this adopts the thread into the controlled schedule and models the join;
// in plain instrumented builds it still records the fork/join
// happens-before edges.  The spawn token carries the task id the spawner
// registered, so the explored task set never depends on OS startup timing;
// create the thread right after `before_spawn()`, with no synchronization
// operation in between.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <source_location>
#include <thread>

#include "lockdep/lockdep.hpp"
#include "util/thread_annotations.hpp"

namespace ca::sync {

/// Annotated scoped lock over any of the mutex shims below.  Constructed
/// locked; supports the unlock/relock dance condition variables need.
/// The defaulted source_location rides into the mutex shim so ca::lockdep
/// reports carry the *call site* of every acquisition, not this header.
template <class M>
class CA_SCOPED_CAPABILITY basic_lock {
 public:
  explicit basic_lock(
      M& m, std::source_location loc = std::source_location::current())
      CA_ACQUIRE(m)
      : m_(&m), owned_(true) {
    m_->lock(loc);
  }
  ~basic_lock() CA_RELEASE() {
    if (owned_) m_->unlock();
  }
  basic_lock(const basic_lock&) = delete;
  basic_lock& operator=(const basic_lock&) = delete;

  void lock(std::source_location loc = std::source_location::current())
      CA_ACQUIRE() {
    m_->lock(loc);
    owned_ = true;
  }
  void unlock() CA_RELEASE() {
    owned_ = false;
    m_->unlock();
  }
  [[nodiscard]] M* mutex() const noexcept { return m_; }
  [[nodiscard]] bool owns_lock() const noexcept { return owned_; }

 private:
  M* m_;
  bool owned_;
};

}  // namespace ca::sync

#if defined(CA_RACE)

#include "race/runtime.hpp"
#include "race/scheduler.hpp"

namespace ca::race {

namespace detail {
/// Address-space key for the fork/exit happens-before edges of one spawned
/// thread (tokens are small integers: tag them away from real pointers).
inline const void* fork_key(std::uint64_t token) {
  return reinterpret_cast<const void*>(
      static_cast<std::uintptr_t>(0xCAFE000000000000ull ^ token));
}
}  // namespace detail

class CA_CAPABILITY("mutex") mutex {
 public:
  /// `cls` names this mutex's ca::lockdep lock class (CA_LOCK_CLASS at the
  /// declaration site); nullptr leaves the mutex out of the ordering graph
  /// (it still participates in held-across-blocking checks, anonymously).
  explicit mutex(const lockdep::ClassInfo* cls = nullptr) : cls_(cls) {}
  ~mutex() { Runtime::instance().forget_sync(this); }
  mutex(const mutex&) = delete;
  mutex& operator=(const mutex&) = delete;

  void lock(std::source_location loc = std::source_location::current())
      CA_ACQUIRE() {
    if (auto* sched = Scheduler::current()) {
      sched->mutex_lock(this);
    } else {
      real_.lock();
    }
    Runtime::instance().acquire(this);
    lockdep::on_acquire(this, cls_, loc);
  }

  bool try_lock(std::source_location loc = std::source_location::current())
      CA_TRY_ACQUIRE(true) {
    bool ok = false;
    if (auto* sched = Scheduler::current()) {
      ok = sched->mutex_try_lock(this);
    } else {
      ok = real_.try_lock();
    }
    if (ok) {
      Runtime::instance().acquire(this);
      lockdep::on_acquire(this, cls_, loc, /*trylock=*/true);
    }
    return ok;
  }

  void unlock() CA_RELEASE() {
    lockdep::on_release(this);
    Runtime::instance().release(this);
    if (auto* sched = Scheduler::current()) {
      sched->mutex_unlock(this);
    } else {
      real_.unlock();
    }
  }

  [[nodiscard]] const lockdep::ClassInfo* lock_class() const noexcept {
    return cls_;
  }

 private:
  std::mutex real_;
  const lockdep::ClassInfo* cls_ = nullptr;
};

using lock = ::ca::sync::basic_lock<mutex>;

class condition_variable {
 public:
  condition_variable() = default;
  ~condition_variable() { Runtime::instance().forget_sync(this); }
  condition_variable(const condition_variable&) = delete;
  condition_variable& operator=(const condition_variable&) = delete;

  void wait(lock& lk,
            std::source_location loc = std::source_location::current()) {
    // Held-across-blocking check: any lock held besides the one this wait
    // atomically releases is a lockdep finding.  Hooked at entry -- before
    // we know whether the wait actually parks -- so a held lock is flagged
    // deterministically, not only in schedules where the wait blocks.
    lockdep::on_cv_wait(lk.mutex(), loc);
    wait_nocheck(lk);
  }

  template <class Predicate>
  void wait(lock& lk, Predicate pred,
            std::source_location loc = std::source_location::current()) {
    lockdep::on_cv_wait(lk.mutex(), loc);
    while (!pred()) wait_nocheck(lk);
  }

  void notify_one() {
    Runtime::instance().release(this);
    if (auto* sched = Scheduler::current()) {
      sched->cv_notify(this, /*all=*/false);
    } else {
      real_.notify_one();
    }
  }

  void notify_all() {
    Runtime::instance().release(this);
    if (auto* sched = Scheduler::current()) {
      sched->cv_notify(this, /*all=*/true);
    } else {
      real_.notify_all();
    }
  }

 private:
  void wait_nocheck(lock& lk) {
    if (auto* sched = Scheduler::current()) {
      mutex* m = lk.mutex();
      // The model performs unlock/relock itself; record the matching
      // happens-before edges around it.
      Runtime::instance().release(m);
      sched->cv_wait(this, m);
      Runtime::instance().acquire(this);
      Runtime::instance().acquire(m);
    } else {
      // condition_variable_any funnels unlock/relock through race::mutex,
      // which records the mutex edges; add the notify edge on wake.
      real_.wait(lk);
      Runtime::instance().acquire(this);
    }
  }

  std::condition_variable_any real_;
};

/// Instrumented atomic.  All operations are modeled acquire-release for
/// happens-before purposes regardless of the requested order (conservative:
/// this can only miss relaxed-ordering races, never invent one), and every
/// operation is a schedule point under the explorer.
template <class T>
class atomic {
 public:
  atomic() = default;
  constexpr atomic(T value) : v_(value) {}  // NOLINT(google-explicit-constructor)
  atomic(const atomic&) = delete;
  atomic& operator=(const atomic&) = delete;

  T load(std::memory_order = std::memory_order_seq_cst) const {
    if (auto* sched = Scheduler::current()) sched->yield_point();
    // Real load first, runtime edge second: a publisher releases into the
    // runtime BEFORE its real store, so once the value is observed the
    // published clock is guaranteed present (the opposite order could read
    // the clock before the publisher's release and miss the edge).
    const T value = v_.load(std::memory_order_acquire);
    Runtime::instance().acquire(this);
    return value;
  }

  void store(T value, std::memory_order = std::memory_order_seq_cst) {
    if (auto* sched = Scheduler::current()) sched->yield_point();
    Runtime::instance().release(this);
    v_.store(value, std::memory_order_release);
  }

  T fetch_add(T delta, std::memory_order = std::memory_order_seq_cst) {
    if (auto* sched = Scheduler::current()) sched->yield_point();
    Runtime::instance().acq_rel(this);
    return v_.fetch_add(delta, std::memory_order_acq_rel);
  }

  T fetch_sub(T delta, std::memory_order = std::memory_order_seq_cst) {
    if (auto* sched = Scheduler::current()) sched->yield_point();
    Runtime::instance().acq_rel(this);
    return v_.fetch_sub(delta, std::memory_order_acq_rel);
  }

  T exchange(T value, std::memory_order = std::memory_order_seq_cst) {
    if (auto* sched = Scheduler::current()) sched->yield_point();
    Runtime::instance().acq_rel(this);
    return v_.exchange(value, std::memory_order_acq_rel);
  }

  operator T() const { return load(); }  // NOLINT(google-explicit-constructor)

 private:
  std::atomic<T> v_{};
};

/// Spawn-side half of the thread lifecycle protocol.
struct spawn_token {
  Scheduler* sched = nullptr;
  std::uint64_t fork = 0;
  Tid task = 0;  ///< the scheduler task the new thread adopts
};

inline spawn_token before_spawn() {
  Scheduler* sched = Scheduler::current();
  const std::uint64_t fork = Runtime::instance().prepare_fork();
  return {sched, fork, sched != nullptr ? sched->prepare_task() : Tid{0}};
}

/// Opened first thing inside a spawned thread's body: adopts the thread
/// into the active schedule (if any) and binds the fork edge; on scope
/// exit, publishes the thread's final clock and retires the task.
class task_scope {
 public:
  explicit task_scope(const spawn_token& token) : token_(token) {
    if (token_.sched != nullptr) {
      token_.sched->adopt_current_thread(token_.task);
    }
    Runtime::instance().bind_fork(token_.fork);
  }
  ~task_scope() {
    Runtime::instance().release(detail::fork_key(token_.fork));
    if (token_.sched != nullptr) token_.sched->task_finished();
  }
  task_scope(const task_scope&) = delete;
  task_scope& operator=(const task_scope&) = delete;

 private:
  spawn_token token_;
};

inline void join_thread(std::thread& t, const spawn_token& token) {
  CA_LOCKDEP_ON_BLOCKING("sync::join_thread");
  if (token.sched != nullptr) token.sched->join_task(token.task);
  t.join();
  Runtime::instance().acquire(detail::fork_key(token.fork));
}

}  // namespace ca::race

namespace ca::sync {
using mutex = ::ca::race::mutex;
using condition_variable = ::ca::race::condition_variable;
template <class T>
using atomic = ::ca::race::atomic<T>;
using lock = ::ca::race::lock;
using spawn_token = ::ca::race::spawn_token;
using task_scope = ::ca::race::task_scope;
using ::ca::race::before_spawn;
using ::ca::race::join_thread;
}  // namespace ca::sync

#else  // !CA_RACE -------------------------------------------------------------

namespace ca::sync {

/// Zero-overhead std::mutex wrapper carrying the capability annotation so
/// Clang can check CA_GUARDED_BY members in every build, not just CA_RACE.
/// In Debug builds (CA_LOCKDEP_ENABLED without CA_RACE) the lockdep hooks
/// are live here too; in release builds they inline to nothing.
class CA_CAPABILITY("mutex") mutex {
 public:
  explicit mutex(const lockdep::ClassInfo* cls = nullptr) : cls_(cls) {}
  mutex(const mutex&) = delete;
  mutex& operator=(const mutex&) = delete;

  void lock(std::source_location loc = std::source_location::current())
      CA_ACQUIRE() {
    real_.lock();
    lockdep::on_acquire(this, cls_, loc);
  }
  bool try_lock(std::source_location loc = std::source_location::current())
      CA_TRY_ACQUIRE(true) {
    const bool ok = real_.try_lock();
    if (ok) lockdep::on_acquire(this, cls_, loc, /*trylock=*/true);
    return ok;
  }
  void unlock() CA_RELEASE() {
    lockdep::on_release(this);
    real_.unlock();
  }

  [[nodiscard]] const lockdep::ClassInfo* lock_class() const { return cls_; }

 private:
  friend class condition_variable;
  std::mutex real_;
  const lockdep::ClassInfo* cls_ = nullptr;
};

using lock = basic_lock<mutex>;

class condition_variable {
 public:
  condition_variable() = default;
  condition_variable(const condition_variable&) = delete;
  condition_variable& operator=(const condition_variable&) = delete;

  void wait(lock& lk,
            std::source_location loc = std::source_location::current()) {
    // Any lock held besides the one this wait releases is a lockdep
    // finding.  Hooked at entry -- before we know whether the wait parks --
    // so a held lock is flagged deterministically.
    lockdep::on_cv_wait(lk.mutex(), loc);
    wait_nocheck(lk);
  }

  template <class Predicate>
  void wait(lock& lk, Predicate pred,
            std::source_location loc = std::source_location::current()) {
    lockdep::on_cv_wait(lk.mutex(), loc);
    while (!pred()) wait_nocheck(lk);
  }

  void notify_one() { real_.notify_one(); }
  void notify_all() { real_.notify_all(); }

 private:
  void wait_nocheck(lock& lk) {
    // Re-wrap the already-held native mutex so the unannotated std types
    // stay an implementation detail.
    std::unique_lock<std::mutex> inner(lk.mutex()->real_, std::adopt_lock);
    real_.wait(inner);
    inner.release();
  }

  std::condition_variable real_;
};

template <class T>
using atomic = std::atomic<T>;

struct spawn_token {};
inline spawn_token before_spawn() { return {}; }

class task_scope {
 public:
  explicit task_scope(const spawn_token&) {}
  task_scope(const task_scope&) = delete;
  task_scope& operator=(const task_scope&) = delete;
};

inline void join_thread(std::thread& t, const spawn_token&) {
  CA_LOCKDEP_ON_BLOCKING("sync::join_thread");
  t.join();
}

}  // namespace ca::sync

#endif  // CA_RACE
