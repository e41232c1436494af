#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace dynvote {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { ++count; });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(negative.num_threads(), 1);
}

TEST(ThreadPoolTest, WaitOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
}

TEST(ThreadPoolTest, WaitCanBeReusedAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&count] { ++count; });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), 10 * (batch + 1));
  }
}

TEST(ThreadPoolTest, TasksMaySubmitFurtherTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&pool, &count] {
    ++count;
    for (int i = 0; i < 5; ++i) {
      pool.Submit([&count] { ++count; });
    }
  });
  pool.Wait();
  EXPECT_EQ(count.load(), 6);
}

TEST(ThreadPoolTest, SlotWritesAreVisibleAfterWait) {
  // The intended usage pattern: each task writes its own pre-assigned
  // slot, the coordinator reads all slots after Wait().
  ThreadPool pool(4);
  std::vector<int> slots(64, -1);
  for (int i = 0; i < 64; ++i) {
    int* slot = &slots[i];
    pool.Submit([slot, i] { *slot = i * i; });
  }
  pool.Wait();
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(slots[i], i * i) << "slot " << i;
  }
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&count] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++count;
      });
    }
  }  // destructor must run all 20 before joining
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPoolTest, DefaultThreadsIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
}

TEST(ThreadPoolTest, TaskExceptionPropagatesToWait) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&count, i] {
      ++count;
      if (i == 3) throw std::runtime_error("task 3 failed");
    });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // Every task still ran: one throwing task never cancels the batch.
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPoolTest, WaitClearsTheExceptionSlot) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("once"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The pool stays usable and the next batch is unaffected.
  std::atomic<int> count{0};
  pool.Submit([&count] { ++count; });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, FirstExceptionWinsLaterOnesAreDropped) {
  ThreadPool pool(4);
  for (int i = 0; i < 16; ++i) {
    pool.Submit([] { throw std::runtime_error("boom"); });
  }
  // Exactly one rethrow regardless of how many tasks threw.
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  pool.Wait();  // slot cleared: second Wait returns normally
}

TEST(ThreadPoolTest, ShutdownRunsAllQueuedTasksBeforeReturning) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) {
    pool.Submit([&count] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++count;
    });
  }
  pool.Shutdown();
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPoolTest, DoubleShutdownIsIdempotent) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { ++count; });
  pool.Shutdown();
  pool.Shutdown();  // must not deadlock, double-join, or crash
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, DestructorAfterExplicitShutdownIsSafe) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    pool.Submit([&count] { ++count; });
    pool.Shutdown();
  }  // destructor's implicit Shutdown() must be a no-op
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, ShutdownSwallowsUncollectedExceptions) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("never collected"); });
  pool.Shutdown();  // must not throw or terminate
}

TEST(ParallelForTest, EmptyRangeNeverCallsTheBody) {
  ThreadPool pool(2);
  int calls = 0;
  ParallelFor(&pool, 0, [&calls](std::size_t, std::size_t) { ++calls; });
  ParallelFor(nullptr, 0, [&calls](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, OneItemOrNoPoolRunsInlineOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  ThreadPool pool(4);
  for (std::size_t n : {std::size_t{1}, std::size_t{7}}) {
    ThreadPool* maybe_pool = n == 1 ? &pool : nullptr;
    int calls = 0;
    ParallelFor(maybe_pool, n,
                [&](std::size_t begin, std::size_t end) {
                  ++calls;
                  EXPECT_EQ(begin, 0u);
                  EXPECT_EQ(end, n);
                  EXPECT_EQ(std::this_thread::get_id(), caller);
                });
    EXPECT_EQ(calls, 1) << "n = " << n;
  }
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 3, 4}) {
    ThreadPool pool(threads);
    for (std::size_t n : std::vector<std::size_t>{2, 3, 5, 8, 16, 17, 100,
                                                  1001}) {
      std::vector<std::atomic<int>> hits(n);
      ParallelFor(&pool, n, [&hits, n](std::size_t begin, std::size_t end) {
        EXPECT_LT(begin, end);
        EXPECT_LE(end, n);
        for (std::size_t i = begin; i < end; ++i) ++hits[i];
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "index " << i << " of " << n << ", " << threads << " threads";
      }
    }
  }
}

TEST(ParallelForTest, ThrowingBodyIsRethrownAndTheRestStillRuns) {
  ThreadPool pool(3);
  std::atomic<std::size_t> covered{0};
  EXPECT_THROW(ParallelFor(&pool, 50,
                           [&covered](std::size_t begin, std::size_t end) {
                             covered += end - begin;
                             if (begin == 0) {
                               throw std::runtime_error("first chunk");
                             }
                           }),
               std::runtime_error);
  EXPECT_EQ(covered.load(), 50u);
  // The pool's exception slot is clear again.
  int calls = 0;
  ParallelFor(&pool, 1, [&calls](std::size_t, std::size_t) { ++calls; });
  pool.Wait();
  EXPECT_EQ(calls, 1);
}

TEST(ValidateWorkerCountTest, AcceptsZeroThroughTheCapOnly) {
  EXPECT_TRUE(ValidateWorkerCount(0).ok());
  EXPECT_TRUE(ValidateWorkerCount(1).ok());
  EXPECT_TRUE(ValidateWorkerCount(kMaxWorkerThreads).ok());
  EXPECT_TRUE(ValidateWorkerCount(-1).IsInvalidArgument());
  EXPECT_TRUE(ValidateWorkerCount(kMaxWorkerThreads + 1).IsInvalidArgument());
}

TEST(ThreadPoolDeathTest, SubmitAfterShutdownDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ThreadPool pool(1);
  pool.Shutdown();
  EXPECT_DEATH(pool.Submit([] {}), "shut-down ThreadPool");
}

}  // namespace
}  // namespace dynvote
