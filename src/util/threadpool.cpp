#include "util/threadpool.hpp"

#include <algorithm>
#include <memory>

#include "util/align.hpp"
#include "util/completion_latch.hpp"
#include "util/error.hpp"

namespace ca::util {

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = std::max<std::size_t>(1, threads);
  workers_.reserve(n);
  worker_tokens_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const sync::spawn_token token = sync::before_spawn();
    worker_tokens_.push_back(token);
    workers_.emplace_back([this, token] {
      sync::task_scope scope(token);
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    sync::lock lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    sync::join_thread(workers_[i], worker_tokens_[i]);
  }
}

void ThreadPool::submit(std::function<void()> task) {
  CA_CHECK(task != nullptr, "null task submitted to thread pool");
  enqueued_.fetch_add(1, std::memory_order_relaxed);
  {
    sync::lock lock(mu_);
    CA_CHECK(!stop_, "submit after shutdown");
    tasks_.push(std::move(task));
  }
  cv_task_.notify_one();
}

namespace {

/// Shared state of one parallel_for: a single atomic cursor all
/// participants pull ranges from.  Exactly one heap object per call, no
/// matter how many chunks the range splits into.  Completion is a
/// CompletionLatch counting elements: each pulled range retires with one
/// wait-free arrive(), and only a parked waiter ever touches the mutex
/// (the old scheme locked and broadcast on the final chunk every call).
struct ParallelForState {
  const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::size_t grain = 1;
  // Every participant hammers the work cursor with fetch_add while the
  // latch's arrival word is hammered right behind it; on separate cache
  // lines a range claim never invalidates the line an arrival is writing.
  CacheLineAligned<sync::atomic<std::size_t>> next{std::size_t{0}};
  CompletionLatch latch;  // internally line-separated itself

  explicit ParallelForState(std::size_t n_) : n(n_), latch(n_) {}

  /// Pull ranges until the cursor runs past n.  Safe to call from any
  /// thread, any number of times, including after completion (late-started
  /// helpers see an exhausted cursor and return immediately).
  void work() {
    for (;;) {
      const std::size_t begin =
          next.value.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) return;
      const std::size_t end = std::min(begin + grain, n);
      (*fn)(begin, end);
      latch.arrive(end - begin);
    }
  }
};

}  // namespace

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t min_grain) {
  if (n == 0) return;
  const std::size_t workers = thread_count();
  // Below min_grain the pool wakeup (queue mutex + cv broadcast + worker
  // scheduling latency) costs more than the loop: run inline, enqueue
  // nothing.
  if (workers == 1 || n <= std::max<std::size_t>(1, min_grain)) {
    fn(0, n);
    return;
  }

  auto state = std::make_shared<ParallelForState>(n);
  state->fn = &fn;
  // ~4 pulls per participant: coarse enough that the atomic cursor is cold,
  // fine enough that a straggler cannot hold more than 1/4 of a share.  A
  // pulled range never drops below min_grain, so helpers that lose the race
  // for the first ranges are not woken for crumbs.
  state->grain = std::max<std::size_t>(std::max<std::size_t>(1, min_grain),
                                       n / ((workers + 1) * 4));

  // The caller participates, so only workers-many helpers are needed; fewer
  // when the range cannot keep them all busy.
  const std::size_t helpers =
      std::min(workers, util::ceil_div(n, state->grain));
  for (std::size_t h = 0; h < helpers; ++h) {
    submit([state] { state->work(); });
  }
  state->work();
  state->latch.wait();
}

void ThreadPool::wait_idle() {
  sync::lock lock(mu_);
  cv_idle_.wait(lock, [this]() CA_REQUIRES(mu_) {
    return tasks_.empty() && active_ == 0;
  });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      sync::lock lock(mu_);
      cv_task_.wait(lock, [this]() CA_REQUIRES(mu_) {
        return stop_ || !tasks_.empty();
      });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      ++active_;
    }
    task();
    {
      sync::lock lock(mu_);
      --active_;
      if (tasks_.empty() && active_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace ca::util
