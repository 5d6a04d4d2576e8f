#include "src/base/thread_pool.h"

#include <algorithm>
#include <exception>

namespace vsched {

ThreadPool::ThreadPool(int threads) {
  unsigned n = threads > 0 ? static_cast<unsigned>(threads) : std::thread::hardware_concurrency();
  n = std::max(1u, n);
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  // spent_ dies with the pool, on this thread.
}

void ThreadPool::Push(std::function<void()> fn) {
  std::vector<std::function<void()>> spent;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spent.swap(spent_);
    queue_.push_back(std::move(fn));
  }
  work_cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return !queue_.empty() || stopping_; });
    if (queue_.empty()) {
      return;  // stopping_ and nothing left to drain
    }
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    task();
    lock.lock();
    spent_.push_back(std::move(task));
  }
}

std::unique_ptr<ThreadPool> MakePool(int threads, size_t tasks) {
  size_t n = threads > 0 ? static_cast<size_t>(threads) : std::thread::hardware_concurrency();
  n = std::min(n, tasks);
  return n > 1 ? std::make_unique<ThreadPool>(static_cast<int>(n)) : nullptr;
}

void RunEach(ThreadPool* pool, size_t n, const std::function<void(size_t)>& fn) {
  std::vector<std::future<void>> pending;
  if (pool != nullptr) {
    pending.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      pending.push_back(pool->Submit([&fn, i] { fn(i); }));
    }
  }
  std::exception_ptr first_error;
  for (size_t i = 0; i < n; ++i) {
    try {
      if (pool == nullptr) {
        fn(i);
      } else {
        pending[i].get();
      }
    } catch (...) {
      if (first_error == nullptr) {
        first_error = std::current_exception();
      }
    }
  }
  if (first_error != nullptr) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace vsched
