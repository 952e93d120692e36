// Tests for the deterministic cooperative scheduler and the schedule
// explorer: seed-replay determinism, breadth of distinct interleavings,
// the modeled mutex / condition-variable / join primitives, and livelock
// detection plumbing.  These use the scheduler API directly (manual task
// adoption), so they run in every build; the instrumented-shim scenarios
// live in race_hazard_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "race/explorer.hpp"
#include "race/runtime.hpp"
#include "race/scheduler.hpp"

namespace ca::race {
namespace {

/// A thread running as a controlled task of the active schedule.
struct ControlledThread {
  std::thread thread;
  Tid task = 0;
};

/// Spawn a thread as a controlled task of the active schedule.  The caller
/// must join it with `join_controlled` before its own task finishes.
ControlledThread spawn_controlled(const std::function<void()>& fn) {
  auto* sched = Scheduler::current();
  const std::uint64_t fork = Runtime::instance().prepare_fork();
  const Tid task = sched->prepare_task();
  return {std::thread([sched, fork, task, fn] {
            sched->adopt_current_thread(task);
            Runtime::instance().bind_fork(fork);
            fn();
            sched->task_finished();
          }),
          task};
}

void join_controlled(ControlledThread& t) {
  Scheduler::current()->join_task(t.task);
  t.thread.join();
}

/// Three tasks, eight schedule points each: ~10^10 possible interleavings,
/// so distinct-schedule counting has room to breathe.
void counting_scenario() {
  auto* sched = Scheduler::current();
  std::vector<ControlledThread> threads;
  threads.reserve(3);
  for (int t = 0; t < 3; ++t) {
    threads.push_back(spawn_controlled([sched] {
      for (int i = 0; i < 8; ++i) sched->yield_point();
    }));
  }
  for (auto& t : threads) join_controlled(t);
}

TEST(RaceScheduler, SameSeedReplaysSameSchedule) {
  for (const auto strategy :
       {Scheduler::Strategy::kRandomWalk, Scheduler::Strategy::kPct}) {
    Scheduler::Options opts;
    opts.seed = 0xDEADBEEF;
    opts.strategy = strategy;
    const auto first = Scheduler::run(opts, counting_scenario);
    const auto second = Scheduler::run(opts, counting_scenario);
    EXPECT_TRUE(first.completed);
    EXPECT_TRUE(second.completed);
    EXPECT_EQ(first.tasks, 4u);  // root + 3 workers
    EXPECT_EQ(first.schedule_hash, second.schedule_hash);
    EXPECT_EQ(first.steps, second.steps);
  }
}

TEST(RaceScheduler, SameSeedReplaysUnderLoad) {
  // Busy threads outnumbering the cores make the OS start the spawned
  // tasks in varying order; task identity must not depend on that order.
  const unsigned spinners = std::max(4u, std::thread::hardware_concurrency());
  std::atomic<bool> stop{false};
  std::vector<std::thread> load;
  load.reserve(spinners);
  for (unsigned i = 0; i < spinners; ++i) {
    load.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
      }
    });
  }
  for (const auto strategy :
       {Scheduler::Strategy::kRandomWalk, Scheduler::Strategy::kPct}) {
    Scheduler::Options opts;
    opts.seed = 0xDEADBEEF;
    opts.strategy = strategy;
    const auto reference = Scheduler::run(opts, counting_scenario);
    for (int repeat = 0; repeat < 20; ++repeat) {
      const auto again = Scheduler::run(opts, counting_scenario);
      EXPECT_EQ(again.schedule_hash, reference.schedule_hash)
          << "repeat " << repeat;
      EXPECT_EQ(again.steps, reference.steps) << "repeat " << repeat;
    }
  }
  stop = true;
  for (auto& t : load) t.join();
}

TEST(RaceScheduler, DifferentSeedsExploreDifferentSchedules) {
  Scheduler::Options a;
  a.seed = 1;
  Scheduler::Options b;
  b.seed = 2;
  const auto ra = Scheduler::run(a, counting_scenario);
  const auto rb = Scheduler::run(b, counting_scenario);
  EXPECT_NE(ra.schedule_hash, rb.schedule_hash);
}

TEST(RaceScheduler, ExploresAtLeastAThousandDistinctSchedules) {
  ExplorerOptions opts;
  opts.schedules = 1100;
  opts.mix_strategies = false;  // pure random-walk: maximal diversity
  const auto result = explore(opts, counting_scenario);
  EXPECT_EQ(result.schedules_run, 1100u);
  EXPECT_EQ(result.failing_schedules, 0u);
  EXPECT_GE(result.distinct_schedules, 1000u);
  std::fprintf(stderr, "ca::race: explored %zu distinct schedules in %zu runs\n",
               result.distinct_schedules, result.schedules_run);
}

TEST(RaceScheduler, PctSchedulesCompleteAndDiverge) {
  ExplorerOptions opts;
  opts.base_seed = 0xABC;
  opts.schedules = 200;
  opts.mix_strategies = true;  // odd seeds run PCT
  const auto result = explore(opts, counting_scenario);
  EXPECT_EQ(result.schedules_run, 200u);
  EXPECT_EQ(result.failing_schedules, 0u);
  // PCT deliberately concentrates on few interleavings (d-1 switch points
  // over a small scenario collide often); the random-walk half of the mix
  // still keeps the sweep diverse.
  EXPECT_GE(result.distinct_schedules, 100u);
}

TEST(RaceScheduler, ModeledMutexGivesExclusionAcrossSchedules) {
  // Two tasks do read-modify-write bursts on shared state under the modeled
  // mutex; with exclusion the final count is exact in every interleaving.
  auto scenario = [] {
    auto* sched = Scheduler::current();
    int counter = 0;
    int lock_tag = 0;  // address used as the modeled mutex key
    std::vector<ControlledThread> threads;
    threads.reserve(2);
    for (int t = 0; t < 2; ++t) {
      threads.push_back(spawn_controlled([sched, &counter, &lock_tag] {
        for (int i = 0; i < 10; ++i) {
          sched->mutex_lock(&lock_tag);
          const int old = counter;
          sched->yield_point();  // invite a preemption inside the section
          counter = old + 1;
          sched->mutex_unlock(&lock_tag);
        }
      }));
    }
    for (auto& t : threads) join_controlled(t);
    if (counter != 20) throw std::runtime_error("lost update under mutex");
  };
  ExplorerOptions opts;
  opts.schedules = 300;
  const auto result = explore(opts, scenario);
  EXPECT_EQ(result.failing_schedules, 0u);
}

TEST(RaceScheduler, ModeledConditionVariableHandshakes) {
  auto scenario = [] {
    auto* sched = Scheduler::current();
    int m_tag = 0;
    int cv_tag = 0;
    bool flag = false;
    ControlledThread waiter = spawn_controlled([&] {
      sched->mutex_lock(&m_tag);
      while (!flag) sched->cv_wait(&cv_tag, &m_tag);
      sched->mutex_unlock(&m_tag);
    });
    ControlledThread notifier = spawn_controlled([&] {
      sched->mutex_lock(&m_tag);
      flag = true;
      sched->mutex_unlock(&m_tag);
      sched->cv_notify(&cv_tag, /*all=*/false);
    });
    join_controlled(waiter);
    join_controlled(notifier);
  };
  ExplorerOptions opts;
  opts.schedules = 300;
  const auto result = explore(opts, scenario);
  // Every schedule completes: no lost-wakeup deadlock in the model.
  EXPECT_EQ(result.failing_schedules, 0u);
  EXPECT_EQ(result.schedules_run, 300u);
}

TEST(RaceScheduler, ReplayReproducesScheduleHash) {
  ExplorerOptions opts;
  opts.schedules = 5;
  const auto result = explore(opts, counting_scenario);
  ASSERT_EQ(result.failing_schedules, 0u);

  // Replay an arbitrary seed from the sweep and check the hash matches a
  // direct run with the same options.
  Scheduler::Options sopts;
  sopts.seed = opts.base_seed + 3;
  sopts.strategy = Scheduler::Strategy::kPct;  // seed index 3 is odd -> PCT
  sopts.pct_depth = opts.pct_depth;
  const auto direct = Scheduler::run(sopts, counting_scenario);
  const auto replayed =
      replay(sopts.seed, sopts.strategy, counting_scenario, opts.pct_depth);
  EXPECT_EQ(direct.schedule_hash, replayed.schedule_hash);
}

}  // namespace
}  // namespace ca::race
