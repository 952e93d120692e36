// Fixed-size worker pool used by the copy engine.
//
// The paper's data mover is "highly multi-threaded, specifically targeting
// large memory sizes" (SV-b).  Real parallel memcpy happens through this
// pool; the *simulated* bandwidth effect of parallelism is modeled
// separately in sim::BandwidthModel so results do not depend on host core
// count.
//
// All synchronization goes through the ca::sync shims (race/sync.hpp): in
// CA_RACE builds every queue operation is a vector-clock event and a
// deterministic schedule point, and the workers are adopted into the
// active schedule exploration at spawn.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "race/sync.hpp"
#include "util/cache_align.hpp"
#include "util/thread_annotations.hpp"

namespace ca::util {

class ThreadPool {
 public:
  /// Ranges at or below this many elements run inline on the caller: for
  /// tiny kernels (a few KiB of floats) the pool wakeup costs more than the
  /// loop itself.  Callers whose per-element work is heavier than "a few
  /// arithmetic ops" pass a smaller min_grain (see grain_for).
  static constexpr std::size_t kDefaultMinGrain = 4096;

  /// Creates `threads` workers (at least 1).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

  /// Enqueue a task. Tasks must not throw; a throwing task terminates.
  void submit(std::function<void()> task) CA_EXCLUDES(mu_);

  /// Run `fn(begin, end)` over a partition of [0, n), blocking until all of
  /// [0, n) is covered.  Work is distributed through ONE shared task state:
  /// workers (and the calling thread, which participates) pull index ranges
  /// from an atomic cursor, so the queue mutex is touched O(workers) times
  /// per call instead of once per chunk.  Runs inline on the caller -- no
  /// task is enqueued, no worker wakes -- when n <= min_grain or the pool
  /// has a single worker; when it does go wide, no pulled range is smaller
  /// than min_grain.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn,
                    std::size_t min_grain = kDefaultMinGrain);

  /// min_grain scaled to per-element cost: a parallel_for whose elements
  /// each do `work_per_item` element-ops of real work should flip to the
  /// pool once n * work_per_item exceeds kDefaultMinGrain.
  [[nodiscard]] static constexpr std::size_t grain_for(
      std::size_t work_per_item) noexcept {
    return work_per_item == 0
               ? kDefaultMinGrain
               : std::max<std::size_t>(1, kDefaultMinGrain / work_per_item);
  }

  /// Total tasks ever enqueued (submit calls), including parallel_for
  /// helpers.  Observability for the grain heuristic: a parallel_for below
  /// min_grain must leave this unchanged.
  [[nodiscard]] std::uint64_t tasks_enqueued() const noexcept {
    return enqueued_.load(std::memory_order_relaxed);
  }

  /// Block until the task queue is empty and all workers are idle.
  void wait_idle() CA_EXCLUDES(mu_);

 private:
  void worker_loop() CA_EXCLUDES(mu_);

  std::vector<std::thread> workers_;
  std::vector<sync::spawn_token> worker_tokens_;  ///< parallel to workers_
  // The enqueue counter is bumped by every submitter while workers hammer
  // the queue mutex next to it; keep each on its own cache line so the
  // telemetry counter never steals the lock word's line.
  alignas(kCacheLineSize) sync::atomic<std::uint64_t> enqueued_{0};
  alignas(kCacheLineSize) sync::mutex mu_
      CA_LEAF{CA_LOCK_CLASS("util::ThreadPool::mu_")};
  std::queue<std::function<void()>> tasks_ CA_GUARDED_BY(mu_);
  sync::condition_variable cv_task_;
  sync::condition_variable cv_idle_;
  std::size_t active_ CA_GUARDED_BY(mu_) = 0;
  bool stop_ CA_GUARDED_BY(mu_) = false;
};

}  // namespace ca::util
