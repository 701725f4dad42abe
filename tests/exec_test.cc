// Tests for malleus::exec — the work-stealing thread pool, WaitGroup and
// ParallelFor that back the planner's concurrent candidate sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.h"

namespace malleus {
namespace exec {
namespace {

TEST(WaitGroupTest, WaitReturnsImmediatelyAtZero) {
  WaitGroup wg;
  wg.Wait();  // Must not block.
}

TEST(WaitGroupTest, WaitBlocksUntilAllDone) {
  WaitGroup wg;
  wg.Add(2);
  std::atomic<int> done{0};
  std::thread t([&] {
    done.fetch_add(1);
    wg.Done();
    done.fetch_add(1);
    wg.Done();
  });
  wg.Wait();
  EXPECT_EQ(done.load(), 2);
  t.join();
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  constexpr int kTasks = 1000;
  std::atomic<int> count{0};
  WaitGroup wg;
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4);
    wg.Add(kTasks);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&] {
        count.fetch_add(1, std::memory_order_relaxed);
        wg.Done();
      });
    }
    wg.Wait();
  }
  EXPECT_EQ(count.load(), kTasks);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  constexpr int kTasks = 200;
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    // No Wait: the destructor must run everything before joining.
  }
  EXPECT_EQ(count.load(), kTasks);
}

TEST(ThreadPoolTest, SingleThreadPoolStillRunsTasks) {
  std::atomic<int> count{0};
  WaitGroup wg;
  ThreadPool pool(1);
  wg.Add(50);
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&] {
      count.fetch_add(1, std::memory_order_relaxed);
      wg.Done();
    });
  }
  wg.Wait();
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, NestedSubmissionCompletes) {
  // Tasks that submit more tasks (the recursive-search shape the LIFO own
  // deque is designed for) must all run without deadlocking.
  std::atomic<int> count{0};
  WaitGroup wg;
  ThreadPool pool(3);
  constexpr int kRoots = 20, kChildren = 10;
  wg.Add(kRoots * (1 + kChildren));
  for (int i = 0; i < kRoots; ++i) {
    pool.Submit([&] {
      for (int j = 0; j < kChildren; ++j) {
        pool.Submit([&] {
          count.fetch_add(1, std::memory_order_relaxed);
          wg.Done();
        });
      }
      count.fetch_add(1, std::memory_order_relaxed);
      wg.Done();
    });
  }
  wg.Wait();
  EXPECT_EQ(count.load(), kRoots * (1 + kChildren));
}

TEST(ParallelForTest, NullPoolRunsInlineInOrder) {
  std::vector<int64_t> order;
  // detlint:allow(conc.shared-mutable-capture null pool runs inline on the calling thread by contract)
  ParallelFor(nullptr, 5, [&](int64_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  constexpr int64_t kN = 500;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  ThreadPool pool(4);
  ParallelFor(&pool, kN, [&](int64_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (int64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, SingleIterationRunsInline) {
  ThreadPool pool(2);
  std::thread::id body_thread;
  // detlint:allow(conc.shared-mutable-capture n<=1 runs inline by contract; the test asserts exactly that)
  ParallelFor(&pool, 1, [&](int64_t) { body_thread = std::this_thread::get_id(); });
  EXPECT_EQ(body_thread, std::this_thread::get_id());
}

TEST(ParallelForTest, ZeroIterationsIsANoOp) {
  ThreadPool pool(2);
  int calls = 0;
  // detlint:allow(conc.shared-mutable-capture zero iterations: the body never runs at all)
  ParallelFor(&pool, 0, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(DefaultPlannerThreadsTest, HonorsEnvironmentVariable) {
  ASSERT_EQ(setenv("MALLEUS_PLANNER_THREADS", "3", 1), 0);
  EXPECT_EQ(DefaultPlannerThreads(), 3);
  ASSERT_EQ(setenv("MALLEUS_PLANNER_THREADS", "0", 1), 0);
  EXPECT_GE(DefaultPlannerThreads(), 1);  // Invalid -> hardware fallback.
  ASSERT_EQ(setenv("MALLEUS_PLANNER_THREADS", "junk", 1), 0);
  EXPECT_GE(DefaultPlannerThreads(), 1);
  ASSERT_EQ(unsetenv("MALLEUS_PLANNER_THREADS"), 0);
  EXPECT_GE(DefaultPlannerThreads(), 1);
}

TEST(DefaultPlannerThreadsTest, TrailingJunkFallsBackToTheDefault) {
  ASSERT_EQ(unsetenv("MALLEUS_PLANNER_THREADS"), 0);
  const int fallback = DefaultPlannerThreads();
  const int cap = ConcurrencyCap();
  // "4abc" and a count above the hardware's both read as junk, not as
  // their leading digits.
  for (const std::string& junk :
       {std::string("4abc"), std::to_string(fallback + 3) + "abc"}) {
    ASSERT_EQ(setenv("MALLEUS_PLANNER_THREADS", junk.c_str(), 1), 0);
    EXPECT_EQ(DefaultPlannerThreads(), fallback) << junk;
    EXPECT_EQ(ConcurrencyCap(), cap) << junk;
  }
  ASSERT_EQ(setenv("MALLEUS_PLANNER_THREADS", "5", 1), 0);
  EXPECT_EQ(DefaultPlannerThreads(), 5);
  EXPECT_EQ(ConcurrencyCap(), std::max(cap, 5));
  ASSERT_EQ(unsetenv("MALLEUS_PLANNER_THREADS"), 0);
}

}  // namespace
}  // namespace exec
}  // namespace malleus
