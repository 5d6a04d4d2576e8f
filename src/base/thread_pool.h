// Work-stealing thread pool for running independent simulations in parallel.
//
// Each worker owns a deque; Submit() distributes tasks round-robin across the
// deques, a worker pops from the front of its own deque and steals from the
// back of a sibling's when it runs dry. Tasks are whole simulation runs
// (milliseconds to seconds of work), so per-deque mutexes — not lock-free
// deques — are the right complexity point.
#ifndef SRC_BASE_THREAD_POOL_H_
#define SRC_BASE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace vsched {

class ThreadPool {
 public:
  // threads <= 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(int threads = 0);

  // Drains every task already submitted, then joins the workers. Futures
  // returned by Submit() are therefore always eventually satisfied.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  // Enqueues `fn` and returns a future for its result. An exception thrown
  // by `fn` is captured and rethrown from future::get().
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn&>> {
    using R = std::invoke_result_t<Fn&>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> future = task->get_future();
    DropSpent();
    Push([task] { (*task)(); });
    return future;
  }

 private:
  struct Shard {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void Push(std::function<void()> fn);
  // Destroys the tasks the workers have finished, on the calling thread.
  void DropSpent();
  // Pops from shard `self`'s front, else steals from another shard's back.
  bool Take(size_t self, std::function<void()>& out);
  void WorkerLoop(size_t self);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;
  std::atomic<size_t> next_shard_{0};

  // Sleep/wake protocol: `pending_` counts queued-but-not-started tasks and
  // is only modified with `sleep_mu_` held, so a worker checking the wait
  // predicate cannot miss a wakeup.
  std::mutex sleep_mu_;
  std::condition_variable work_cv_;
  size_t pending_ = 0;
  bool stopping_ = false;

  // Finished tasks, destroyed by the submitting thread (Submit,
  // ~ThreadPool) and never by a worker. A task owns its future's shared
  // state and with it any stored exception, so a worker that dropped the
  // last reference would free an exception the caller may still be reading:
  // libstdc++ orders that release with refcount atomics that ThreadSanitizer
  // does not see.
  std::mutex spent_mu_;
  std::vector<std::function<void()>> spent_;
};

}  // namespace vsched

#endif  // SRC_BASE_THREAD_POOL_H_
