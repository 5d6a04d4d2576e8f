#include "src/base/thread_pool.h"

#include <atomic>
#include <chrono>
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

TEST(ThreadPoolTest, IdleWorkersStealQueuedWork) {
  // With 4 workers and round-robin placement, a backlog submitted at once
  // lands on every shard; all of it must complete even though 3 of the 4
  // shards' owners race the others for it.
  ThreadPool pool(4);
  std::atomic<int> done{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 128; ++i) {
    futures.push_back(pool.Submit([&done] { done.fetch_add(1); }));
  }
  for (auto& future : futures) {
    future.get();
  }
  EXPECT_EQ(done.load(), 128);
}

}  // namespace
}  // namespace vsched
