// CompletionLatch: the parallel_for rendezvous.  These tests run in every
// build; under -DCA_RACE=ON ("race.Latch*" via test_util in the race
// stage) every atomic op and cv wait is a deterministic schedule point, so
// the explorer can drive the waiter/arriver interleavings (including the
// park-then-arrive window the seq_cst handshake closes).  Under TSan the
// plain-array publish tests check the arrive->wait happens-before edge.
#include <cstddef>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "race/sync.hpp"
#include "util/completion_latch.hpp"
#include "util/threadpool.hpp"

namespace {

using ca::util::CompletionLatch;
using ca::util::ThreadPool;

TEST(Latch, ZeroCountIsImmediatelyDone) {
  CompletionLatch latch(0);
  EXPECT_TRUE(latch.done());
  latch.wait();  // must not block
}

TEST(Latch, ArriveBeforeWaitDoesNotBlock) {
  CompletionLatch latch(3);
  EXPECT_FALSE(latch.done());
  latch.arrive();
  latch.arrive(2);
  EXPECT_TRUE(latch.done());
  latch.wait();
}

TEST(Latch, PublishesWorkAcrossThreads) {
  // Each spawned thread writes a plain (non-atomic) slot before arriving;
  // the waiter reads every slot after wait().  The latch's release/acquire
  // chain is the only thing making that read safe -- TSan and the CA_RACE
  // vector clocks both verify the edge.
  constexpr std::size_t kThreads = 4;
  CompletionLatch latch(kThreads);
  std::vector<std::size_t> slots(kThreads, 0);

  std::vector<std::thread> threads;
  std::vector<ca::sync::spawn_token> tokens;
  for (std::size_t t = 0; t < kThreads; ++t) {
    const ca::sync::spawn_token token = ca::sync::before_spawn();
    tokens.push_back(token);
    threads.emplace_back([&slots, &latch, t, token] {
      ca::sync::task_scope scope(token);
      slots[t] = t + 1;
      latch.arrive();
    });
  }

  latch.wait();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(slots[t], t + 1);
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    ca::sync::join_thread(threads[t], tokens[t]);
  }
}

TEST(Latch, MultiUnitArrivalsFromPool) {
  // parallel_for-shaped usage: the latch counts elements, producers retire
  // variable-sized chunks.
  ThreadPool pool(3);
  constexpr std::size_t kUnits = 100;
  CompletionLatch latch(kUnits);
  for (std::size_t chunk : {std::size_t{40}, std::size_t{35}, std::size_t{25}}) {
    pool.submit([&latch, chunk] { latch.arrive(chunk); });
  }
  latch.wait();
  EXPECT_TRUE(latch.done());
  pool.wait_idle();
}

TEST(Latch, MultipleWaitersAllRelease) {
  ThreadPool pool(2);
  CompletionLatch gate(1);
  CompletionLatch released(2);
  for (int w = 0; w < 2; ++w) {
    pool.submit([&gate, &released] {
      gate.wait();
      released.arrive();
    });
  }
  gate.arrive();
  released.wait();
  pool.wait_idle();
}

TEST(Latch, ParallelForStillCoversEveryElement) {
  // End-to-end through the new rendezvous: every index covered exactly
  // once, across a size sweep straddling the inline/grain thresholds.
  ThreadPool pool(4);
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{100}, std::size_t{4096},
        std::size_t{4097}, std::size_t{100000}}) {
    std::vector<int> hits(n, 0);
    pool.parallel_for(
        n,
        [&hits](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) ++hits[i];
        },
        /*min_grain=*/64);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i], 1) << "element " << i << " of " << n;
    }
  }
}

}  // namespace
