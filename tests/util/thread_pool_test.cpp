#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace nptsn {
namespace {

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(64, [&](int i) { ++hits[static_cast<std::size_t>(i)]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](int) { FAIL() << "must not run"; });
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool pool(3);
  std::vector<long> partial(100, 0);
  pool.parallel_for(100, [&](int i) {
    long s = 0;
    for (int j = 0; j <= i; ++j) s += j;
    partial[static_cast<std::size_t>(i)] = s;
  });
  long total = std::accumulate(partial.begin(), partial.end(), 0L);
  long expected = 0;
  for (int i = 0; i < 100; ++i) expected += i * (i + 1) / 2;
  EXPECT_EQ(total, expected);
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(8,
                                 [](int i) {
                                   if (i == 3) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ConcurrentThrowsFromAllWorkersPropagateOne) {
  // Force the throws to be genuinely concurrent: every task spins at a
  // barrier until all four have arrived, then all throw at once. Exactly one
  // exception must surface and the pool must not deadlock or double-free.
  ThreadPool pool(4);
  std::atomic<int> arrived{0};
  EXPECT_THROW(pool.parallel_for(4,
                                 [&](int i) {
                                   ++arrived;
                                   while (arrived.load() < 4) std::this_thread::yield();
                                   throw std::runtime_error("worker " + std::to_string(i));
                                 }),
               std::runtime_error);

  // And the pool stays fully usable afterwards.
  std::atomic<int> runs{0};
  pool.parallel_for(16, [&](int) { ++runs; });
  EXPECT_EQ(runs.load(), 16);
  EXPECT_THROW(pool.parallel_for(2, [](int) { throw std::runtime_error("again"); }),
               std::runtime_error);
  runs = 0;
  pool.parallel_for(8, [&](int) { ++runs; });
  EXPECT_EQ(runs.load(), 8);
}

TEST(ThreadPool, ConcurrentThrowsPropagateLowestIndexDeterministically) {
  // Several tasks throw in the same parallel_for; which exception surfaces
  // must not depend on thread scheduling. The contract: every task runs to
  // completion (or to its throw), and the lowest-index exception wins. The
  // barrier forces all four tasks to be in flight simultaneously so a
  // first-past-the-post implementation would flake here.
  ThreadPool pool(4);
  for (int round = 0; round < 25; ++round) {
    std::atomic<int> arrived{0};
    try {
      pool.parallel_for(4, [&](int i) {
        ++arrived;
        while (arrived.load() < 4) std::this_thread::yield();
        if (i >= 1) throw std::runtime_error("task " + std::to_string(i));
      });
      FAIL() << "expected a propagated exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 1");
    }
  }
}

TEST(ThreadPool, SurvivesExceptionAndRunsAgain) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(4, [](int) { throw std::runtime_error("boom"); });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> runs{0};
  pool.parallel_for(4, [&](int) { ++runs; });
  EXPECT_EQ(runs.load(), 4);
}

TEST(ThreadPool, SingleThreadPoolStillParallelFor) {
  ThreadPool pool(1);
  std::atomic<int> runs{0};
  pool.parallel_for(10, [&](int) { ++runs; });
  EXPECT_EQ(runs.load(), 10);
}

TEST(ThreadPool, ManyTinyParallelForsNeverOutliveTheirBarrier) {
  // Regression for a use-after-scope race: parallel_for's completion barrier
  // (mutex + condition variable) lives on the caller's stack, and the last
  // task used to decrement the counter before locking it, so the caller could
  // return and destroy the barrier under the notifier (an abort in glibc's
  // mutex lock). Tiny tasks back to back maximize that window.
  ThreadPool pool(4);
  std::atomic<long> runs{0};
  constexpr int kCalls = 100000;
  for (int call = 0; call < kCalls; ++call) {
    pool.parallel_for(1 + call % 4, [&](int) { runs.fetch_add(1, std::memory_order_relaxed); });
  }
  long expected = 0;
  for (int call = 0; call < kCalls; ++call) expected += 1 + call % 4;
  EXPECT_EQ(runs.load(), expected);
}

TEST(ThreadPool, RejectsNonPositiveSize) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPool, SizeReportsThreadCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3);
}

}  // namespace
}  // namespace nptsn
