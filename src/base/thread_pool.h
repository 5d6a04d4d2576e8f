// Thread pool for running independent simulations in parallel.
//
// One FIFO queue under one mutex. Its traffic is a few hundred whole-
// simulation tasks per batch (sweep cells, or fleet cells per run phase),
// each milliseconds to seconds of work, so a push and a pop on one lock cost
// nothing next to the task. Build a pool with MakePool, sized to its batch,
// and run the batch with RunEach.
#ifndef SRC_BASE_THREAD_POOL_H_
#define SRC_BASE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
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
    Push([task] { (*task)(); });
    return future;
  }

 private:
  // Queues `fn` and destroys the tasks the workers have finished, on the
  // calling thread.
  void Push(std::function<void()> fn);
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  // Finished tasks, destroyed by the submitting thread (Push, ~ThreadPool)
  // and never by a worker. A task owns its future's shared state and with
  // it any stored exception, so a worker that dropped the last reference
  // would free an exception the caller may still be reading: libstdc++
  // orders that release with refcount atomics that ThreadSanitizer does not
  // see.
  std::vector<std::function<void()>> spent_;
  std::vector<std::thread> workers_;
};

// A pool of min(threads, tasks) workers, where threads <= 0 means hardware
// concurrency; null when that is at most one, so RunEach runs inline.
std::unique_ptr<ThreadPool> MakePool(int threads, size_t tasks);

// Runs fn(0) ... fn(n - 1): inline and in index order when `pool` is null,
// otherwise as pool tasks. Every index runs even when some throw; then the
// lowest throwing index's exception is rethrown, so which error surfaces
// never depends on worker scheduling.
void RunEach(ThreadPool* pool, size_t n, const std::function<void(size_t)>& fn);

}  // namespace vsched

#endif  // SRC_BASE_THREAD_POOL_H_
