#include "util/threadpool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace ca::util {
namespace {

TEST(ThreadPool, AtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForSingleElement) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  pool.parallel_for(1, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1u);
    sum.fetch_add(1);
  });
  EXPECT_EQ(sum.load(), 1);
}

TEST(ThreadPool, ParallelForUnevenSplit) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(7, [&](std::size_t begin, std::size_t end) {
    total.fetch_add(end - begin);
  });
  EXPECT_EQ(total.load(), 7u);
}

TEST(ThreadPool, ParallelForComputesCorrectSum) {
  ThreadPool pool(4);
  std::vector<int> data(10000);
  std::iota(data.begin(), data.end(), 1);
  std::atomic<long long> sum{0};
  pool.parallel_for(data.size(), [&](std::size_t begin, std::size_t end) {
    long long local = 0;
    for (std::size_t i = begin; i < end; ++i) local += data[i];
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), 10000LL * 10001 / 2);
}

TEST(ThreadPool, WaitIdleWithNoTasksReturns) {
  ThreadPool pool(2);
  pool.wait_idle();
  SUCCEED();
}

TEST(ThreadPool, SequentialParallelForsAreIndependent) {
  ThreadPool pool(2);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> n{0};
    pool.parallel_for(100, [&](std::size_t begin, std::size_t end) {
      n.fetch_add(static_cast<int>(end - begin));
    });
    EXPECT_EQ(n.load(), 100);
  }
}

// --- grain heuristic ---------------------------------------------------------

TEST(ThreadPool, ParallelForBelowMinGrainEnqueuesNothing) {
  ThreadPool pool(4);
  const std::uint64_t before = pool.tasks_enqueued();
  std::atomic<std::size_t> covered{0};
  pool.parallel_for(ThreadPool::kDefaultMinGrain,
                    [&](std::size_t begin, std::size_t end) {
                      covered.fetch_add(end - begin);
                    });
  EXPECT_EQ(covered.load(), ThreadPool::kDefaultMinGrain);
  EXPECT_EQ(pool.tasks_enqueued(), before);  // ran inline on the caller
}

TEST(ThreadPool, ParallelForAboveMinGrainGoesWide) {
  ThreadPool pool(4);
  const std::uint64_t before = pool.tasks_enqueued();
  std::atomic<std::size_t> covered{0};
  pool.parallel_for(4 * ThreadPool::kDefaultMinGrain,
                    [&](std::size_t begin, std::size_t end) {
                      covered.fetch_add(end - begin);
                    });
  EXPECT_EQ(covered.load(), 4 * ThreadPool::kDefaultMinGrain);
  EXPECT_GT(pool.tasks_enqueued(), before);
}

TEST(ThreadPool, ParallelForCustomGrainEnqueuesForSmallRanges) {
  ThreadPool pool(4);
  const std::uint64_t before = pool.tasks_enqueued();
  std::atomic<std::size_t> covered{0};
  // min_grain=1: even an 8-element range is worth distributing (the caller
  // declares each element expensive, e.g. one conv image).
  pool.parallel_for(
      8,
      [&](std::size_t begin, std::size_t end) {
        covered.fetch_add(end - begin);
      },
      1);
  EXPECT_EQ(covered.load(), 8u);
  EXPECT_GT(pool.tasks_enqueued(), before);
}

TEST(ThreadPool, SingleWorkerPoolAlwaysRunsInline) {
  ThreadPool pool(1);
  const std::uint64_t before = pool.tasks_enqueued();
  std::atomic<std::size_t> covered{0};
  pool.parallel_for(
      100000,
      [&](std::size_t begin, std::size_t end) {
        covered.fetch_add(end - begin);
      },
      1);
  EXPECT_EQ(covered.load(), 100000u);
  EXPECT_EQ(pool.tasks_enqueued(), before);
}

TEST(ThreadPool, GrainForScalesInverselyWithWork) {
  EXPECT_EQ(ThreadPool::grain_for(0), ThreadPool::kDefaultMinGrain);
  EXPECT_EQ(ThreadPool::grain_for(1), ThreadPool::kDefaultMinGrain);
  EXPECT_EQ(ThreadPool::grain_for(2), ThreadPool::kDefaultMinGrain / 2);
  // Heavier-than-grain work items always qualify for distribution.
  EXPECT_EQ(ThreadPool::grain_for(2 * ThreadPool::kDefaultMinGrain), 1u);
}

}  // namespace
}  // namespace ca::util
