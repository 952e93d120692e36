#include "race/scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "race/runtime.hpp"

namespace ca::race {

namespace {

/// SplitMix64: tiny, seedable, and good enough to spread schedules.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t fnv_mix(std::uint64_t hash, std::uint64_t value) {
  hash ^= value;
  return hash * 0x100000001b3ull;
}

struct Tls {
  Scheduler* sched = nullptr;
  void* task = nullptr;
};
thread_local Tls t_tls;

}  // namespace

struct Scheduler::Task {
  Tid tid = 0;
  enum class St { kRunnable, kRunning, kBlocked, kFinished } st = St::kRunnable;
  enum class Wait { kNone, kMutex, kCv, kJoin } wait = Wait::kNone;
  const void* wait_obj = nullptr;
  std::uint64_t priority = 0;
  // Token handoff: the scheduler grants by setting `go` under `m`.
  std::mutex m;
  std::condition_variable cv;
  bool go = false;
};

Scheduler::Scheduler(const Options& options) : options_(options) {
  rng_state_ = options.seed ^ 0xca5eedull;
  if (options_.strategy == Strategy::kPct) {
    const int points = std::max(0, options_.pct_depth - 1);
    for (int i = 0; i < points; ++i) {
      switch_points_.push_back(1 + rng_next() % 4096);
    }
    std::sort(switch_points_.begin(), switch_points_.end());
  }
}

Scheduler::~Scheduler() = default;

std::uint64_t Scheduler::rng_next() { return splitmix64(rng_state_); }

Scheduler* Scheduler::current() noexcept {
  return t_tls.task != nullptr ? t_tls.sched : nullptr;
}

Scheduler::Task* Scheduler::self() const noexcept {
  return static_cast<Task*>(t_tls.task);
}

Scheduler::Task* Scheduler::find_locked(Tid tid) const noexcept {
  for (const auto& t : tasks_) {
    if (t->tid == tid) return t.get();
  }
  return nullptr;
}

void Scheduler::park(Task* t) {
  std::unique_lock lk(t->m);
  t->cv.wait(lk, [t] { return t->go; });
  t->go = false;
}

void Scheduler::grant_locked(Task* t) {
  t->st = Task::St::kRunning;
  {
    std::lock_guard lk(t->m);
    t->go = true;
  }
  t->cv.notify_one();
}

Scheduler::Task* Scheduler::choose_locked() {
  ++steps_;
  if (steps_ > options_.max_steps) stuck_abort_locked("livelock");

  // PCT: consume due priority change points by demoting the last runner.
  while (next_switch_ < switch_points_.size() &&
         steps_ >= switch_points_[next_switch_]) {
    if (last_chosen_ != nullptr) last_chosen_->priority = --low_priority_;
    ++next_switch_;
  }

  Task* chosen = nullptr;
  if (options_.strategy == Strategy::kPct) {
    for (const auto& t : tasks_) {
      if (t->st != Task::St::kRunnable) continue;
      if (chosen == nullptr || t->priority > chosen->priority) chosen = t.get();
    }
  } else {
    std::size_t runnable = 0;
    for (const auto& t : tasks_) {
      if (t->st == Task::St::kRunnable) ++runnable;
    }
    if (runnable > 0) {
      std::size_t pick = rng_next() % runnable;
      for (const auto& t : tasks_) {
        if (t->st != Task::St::kRunnable) continue;
        if (pick-- == 0) {
          chosen = t.get();
          break;
        }
      }
    }
  }
  if (chosen != nullptr) {
    hash_ = fnv_mix(hash_, chosen->tid);
    last_chosen_ = chosen;
  }
  return chosen;
}

void Scheduler::finish_if_done_locked() {
  done_ = true;
  done_cv_.notify_all();
}

void Scheduler::stuck_abort_locked(const char* what) {
  std::fprintf(stderr,
               "ca::race: %s at step %zu (seed=0x%llx, strategy=%s) -- "
               "task states:\n",
               what, steps_,
               static_cast<unsigned long long>(options_.seed),
               options_.strategy == Strategy::kPct ? "pct" : "random");
  for (const auto& t : tasks_) {
    const char* st = t->st == Task::St::kRunnable   ? "runnable"
                     : t->st == Task::St::kRunning  ? "running"
                     : t->st == Task::St::kBlocked  ? "blocked"
                                                    : "finished";
    const char* wait = t->wait == Task::Wait::kMutex ? " on mutex"
                       : t->wait == Task::Wait::kCv  ? " on condvar"
                       : t->wait == Task::Wait::kJoin ? " on join"
                                                      : "";
    std::fprintf(stderr, "  task %u: %s%s %p\n", t->tid, st, wait,
                 t->wait_obj);
  }
  std::fflush(stderr);
  std::abort();
}

bool Scheduler::schedule_from_locked(Task* current) {
  Task* next = choose_locked();
  if (next == nullptr) {
    bool all_finished = true;
    for (const auto& t : tasks_) {
      if (t->st != Task::St::kFinished) {
        all_finished = false;
        break;
      }
    }
    if (all_finished) {
      finish_if_done_locked();
      return false;
    }
    stuck_abort_locked("deadlock");
  }
  if (next == current) {
    current->st = Task::St::kRunning;
    return false;
  }
  grant_locked(next);
  return true;
}

void Scheduler::yield_point() {
  Task* me = self();
  if (me == nullptr) return;
  std::unique_lock lk(smu_);
  me->st = Task::St::kRunnable;
  const bool must_park = schedule_from_locked(me);
  lk.unlock();
  if (must_park) park(me);
}

void Scheduler::wake_mutex_waiters_locked(const void* m) {
  for (const auto& t : tasks_) {
    if (t->st == Task::St::kBlocked && t->wait == Task::Wait::kMutex &&
        t->wait_obj == m) {
      t->st = Task::St::kRunnable;
      t->wait = Task::Wait::kNone;
      t->wait_obj = nullptr;
    }
  }
}

void Scheduler::acquire_or_block_locked(std::unique_lock<std::mutex>& lk,
                                        const void* m) {
  Task* me = self();
  for (;;) {
    const auto it = mutex_owner_.find(m);
    if (it == mutex_owner_.end() || it->second == nullptr) {
      mutex_owner_[m] = me;
      return;
    }
    me->st = Task::St::kBlocked;
    me->wait = Task::Wait::kMutex;
    me->wait_obj = m;
    const bool must_park = schedule_from_locked(me);
    lk.unlock();
    if (must_park) park(me);
    lk.lock();
  }
}

void Scheduler::mutex_lock(const void* m) {
  Task* me = self();
  std::unique_lock lk(smu_);
  // Preemption point before the acquire: others may grab the lock first.
  me->st = Task::St::kRunnable;
  const bool must_park = schedule_from_locked(me);
  if (must_park) {
    lk.unlock();
    park(me);
    lk.lock();
  }
  acquire_or_block_locked(lk, m);
}

bool Scheduler::mutex_try_lock(const void* m) {
  Task* me = self();
  std::unique_lock lk(smu_);
  me->st = Task::St::kRunnable;
  const bool must_park = schedule_from_locked(me);
  if (must_park) {
    lk.unlock();
    park(me);
    lk.lock();
  }
  const auto it = mutex_owner_.find(m);
  if (it != mutex_owner_.end() && it->second != nullptr) return false;
  mutex_owner_[m] = me;
  return true;
}

void Scheduler::mutex_unlock(const void* m) {
  Task* me = self();
  std::unique_lock lk(smu_);
  mutex_owner_[m] = nullptr;
  wake_mutex_waiters_locked(m);
  // Release is a schedule point too: a freshly woken waiter may run now.
  me->st = Task::St::kRunnable;
  const bool must_park = schedule_from_locked(me);
  lk.unlock();
  if (must_park) park(me);
}

void Scheduler::cv_wait(const void* cv, const void* m) {
  Task* me = self();
  std::unique_lock lk(smu_);
  // Atomically: release the mutex and enqueue as a waiter (no lost wakeup:
  // both happen under the scheduler lock before the token moves).
  mutex_owner_[m] = nullptr;
  wake_mutex_waiters_locked(m);
  me->st = Task::St::kBlocked;
  me->wait = Task::Wait::kCv;
  me->wait_obj = cv;
  const bool must_park = schedule_from_locked(me);
  lk.unlock();
  if (must_park) park(me);
  lk.lock();
  // Notified: re-acquire the mutex before returning, as std::cv does.
  acquire_or_block_locked(lk, m);
}

void Scheduler::cv_notify(const void* cv, bool all) {
  Task* me = self();
  std::unique_lock lk(smu_);
  std::vector<Task*> waiters;
  for (const auto& t : tasks_) {
    if (t->st == Task::St::kBlocked && t->wait == Task::Wait::kCv &&
        t->wait_obj == cv) {
      waiters.push_back(t.get());
    }
  }
  if (!waiters.empty()) {
    if (all) {
      for (Task* w : waiters) {
        w->st = Task::St::kRunnable;
        w->wait = Task::Wait::kNone;
        w->wait_obj = nullptr;
      }
    } else {
      // Which waiter wakes is itself a scheduling decision.
      Task* w = waiters[rng_next() % waiters.size()];
      hash_ = fnv_mix(hash_, 0x9000u + w->tid);
      w->st = Task::St::kRunnable;
      w->wait = Task::Wait::kNone;
      w->wait_obj = nullptr;
    }
  }
  me->st = Task::St::kRunnable;
  const bool must_park = schedule_from_locked(me);
  lk.unlock();
  if (must_park) park(me);
}

Tid Scheduler::prepare_task() {
  auto task = std::make_unique<Task>();
  std::lock_guard lk(smu_);
  // Drawn by the spawner, which holds the token: id and priority follow
  // spawn order, never the order in which OS threads start.
  task->tid = Runtime::instance().reserve_tid();
  task->priority = 1 + (rng_next() % (1u << 19)) + (1u << 20);
  const Tid tid = task->tid;
  tasks_.push_back(std::move(task));
  return tid;
}

void Scheduler::adopt_current_thread(Tid tid) {
  Runtime::instance().bind_tid(tid);
  Task* t = nullptr;
  {
    std::lock_guard lk(smu_);
    t = find_locked(tid);
  }
  t_tls.sched = this;
  t_tls.task = t;
  park(t);
}

void Scheduler::task_finished() {
  Task* me = self();
  std::unique_lock lk(smu_);
  me->st = Task::St::kFinished;
  for (const auto& t : tasks_) {
    if (t->st == Task::St::kBlocked && t->wait == Task::Wait::kJoin &&
        t->wait_obj == me) {
      t->st = Task::St::kRunnable;
      t->wait = Task::Wait::kNone;
      t->wait_obj = nullptr;
    }
  }
  t_tls.task = nullptr;
  t_tls.sched = nullptr;
  schedule_from_locked(nullptr);  // hands off or declares completion
}

void Scheduler::join_task(Tid tid) {
  Task* me = self();
  std::unique_lock lk(smu_);
  Task* target = find_locked(tid);
  if (target == nullptr || target->st == Task::St::kFinished) return;
  me->st = Task::St::kBlocked;
  me->wait = Task::Wait::kJoin;
  me->wait_obj = target;
  const bool must_park = schedule_from_locked(me);
  lk.unlock();
  if (must_park) park(me);
}

Scheduler::Result Scheduler::run(const Options& options,
                                 const std::function<void()>& root) {
  Runtime::instance().reset();
  Scheduler sched(options);
  const Tid root_task = sched.prepare_task();

  std::thread root_thread([&] {
    sched.adopt_current_thread(root_task);
    try {
      root();
    } catch (const std::exception& e) {
      std::lock_guard lk(sched.smu_);
      sched.errors_.emplace_back(e.what());
    } catch (...) {
      std::lock_guard lk(sched.smu_);
      sched.errors_.emplace_back("unknown exception");
    }
    sched.task_finished();
  });

  {
    std::unique_lock lk(sched.smu_);
    Task* first = sched.choose_locked();
    sched.grant_locked(first);
    sched.done_cv_.wait(lk, [&] { return sched.done_; });
  }
  // Every non-root task thread was joined by user code inside root
  // (ThreadPool destructors, race::thread::join) before root finished.
  root_thread.join();

  Result result;
  result.completed = true;
  result.steps = sched.steps_;
  result.tasks = sched.tasks_.size();
  result.schedule_hash = sched.hash_;
  result.task_errors = std::move(sched.errors_);
  return result;
}

}  // namespace ca::race
