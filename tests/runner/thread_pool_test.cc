#include "src/base/thread_pool.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace vsched {
namespace {

TEST(ThreadPoolTest, RunsEveryTaskAndPreservesSubmitOrderViaFutures) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(ThreadPoolTest, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1);
}

TEST(ThreadPoolTest, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  std::future<int> bad = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  std::future<int> good = pool.Submit([] { return 7; });
  EXPECT_THROW(
      {
        try {
          bad.get();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "boom");
          throw;
        }
      },
      std::runtime_error);
  EXPECT_EQ(good.get(), 7);
}

// An exception that records the thread that destroys it.
class TrackedError : public std::runtime_error {
 public:
  explicit TrackedError(std::thread::id* destroyed_on)
      : std::runtime_error("tracked"), destroyed_on_(destroyed_on) {}
  TrackedError(const TrackedError&) = default;
  ~TrackedError() override { *destroyed_on_ = std::this_thread::get_id(); }

 private:
  std::thread::id* destroyed_on_;
};

TEST(ThreadPoolTest, TaskExceptionsAreDestroyedOnTheSubmittingThread) {
  // A finished task owns its future's shared state, and with it any stored
  // exception. A worker that dropped the last reference would free the
  // exception while the caller may still be reading it, so the pool leaves
  // finished tasks to the submitting thread. The first throwing task's
  // future is dropped before the task runs (the blocker holds the only
  // worker), so that task holds the last reference to its exception.
  std::thread::id dropped_died_on;
  std::thread::id caught_died_on;
  {
    ThreadPool pool(1);
    std::atomic<bool> go{false};
    pool.Submit([&go] {
      while (!go.load()) {
        std::this_thread::yield();
      }
    });
    pool.Submit([&dropped_died_on] { throw TrackedError(&dropped_died_on); });
    go = true;
    std::future<void> caught =
        pool.Submit([&caught_died_on] { throw TrackedError(&caught_died_on); });
    EXPECT_THROW(caught.get(), TrackedError);
  }
  EXPECT_EQ(dropped_died_on, std::this_thread::get_id());
  EXPECT_EQ(caught_died_on, std::this_thread::get_id());
}

TEST(ThreadPoolTest, DestructorDrainsPendingWork) {
  std::atomic<int> done{0};
  constexpr int kTasks = 64;
  {
    // One worker and a pile of sleeping tasks: most are still queued when
    // the destructor runs, and it must finish them all before joining.
    ThreadPool pool(1);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&done] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        done.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ThreadPoolTest, WorkersRunConcurrently) {
  // Two tasks that each wait for the other to start can only finish if two
  // workers execute them at the same time.
  ThreadPool pool(2);
  std::atomic<int> started{0};
  auto rendezvous = [&started] {
    started.fetch_add(1);
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (started.load() < 2) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "tasks never overlapped";
      std::this_thread::yield();
    }
  };
  std::future<void> a = pool.Submit(rendezvous);
  std::future<void> b = pool.Submit(rendezvous);
  a.get();
  b.get();
  EXPECT_EQ(started.load(), 2);
}

// RunEach's two paths: inline (a null pool, the serial reference) and pooled.
TEST(ThreadPoolTest, RunEachRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (ThreadPool* path : {static_cast<ThreadPool*>(nullptr), &pool}) {
    std::vector<std::atomic<int>> runs(100);
    RunEach(path, runs.size(), [&runs](size_t i) { runs[i].fetch_add(1); });
    for (size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "index " << i << (path == nullptr ? " inline" : " pooled");
    }
  }
}

TEST(ThreadPoolTest, RunEachInlineRunsInIndexOrderOnTheCallingThread) {
  std::vector<size_t> order;
  std::thread::id caller = std::this_thread::get_id();
  RunEach(nullptr, 6, [&order, caller](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(ThreadPoolTest, RunEachRunsEveryIndexThenRethrowsTheLowestThrowingOne) {
  ThreadPool pool(4);
  for (ThreadPool* path : {static_cast<ThreadPool*>(nullptr), &pool}) {
    std::vector<std::atomic<int>> runs(8);
    std::atomic<bool> five_threw{false};
    try {
      RunEach(path, runs.size(), [&runs, &five_threw, path](size_t i) {
        runs[i].fetch_add(1);
        if (i == 5) {
          five_threw = true;
          throw std::runtime_error("index 5");
        }
        if (i == 2) {
          // Pooled, index 2 throws only after index 5 has, so the rethrown
          // error must be chosen by index, not by the time it was thrown.
          auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (path != nullptr && !five_threw.load() &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
          throw std::runtime_error("index 2");
        }
      });
      ADD_FAILURE() << "RunEach swallowed the errors";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 2");
    }
    for (size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "index " << i << (path == nullptr ? " inline" : " pooled");
    }
  }
}

TEST(ThreadPoolTest, MakePoolSizesToTheBatch) {
  EXPECT_EQ(MakePool(1, 100), nullptr);
  EXPECT_EQ(MakePool(4, 1), nullptr);
  EXPECT_EQ(MakePool(4, 0), nullptr);
  std::unique_ptr<ThreadPool> pool = MakePool(8, 3);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->size(), 3);
  pool = MakePool(2, 100);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->size(), 2);
  // 0 means hardware concurrency, still capped by the batch.
  pool = MakePool(0, 2);
  if (std::thread::hardware_concurrency() >= 2) {
    ASSERT_NE(pool, nullptr);
    EXPECT_EQ(pool->size(), 2);
  } else {
    EXPECT_EQ(pool, nullptr);
  }
}

}  // namespace
}  // namespace vsched
