#include "src/base/thread_pool.h"

#include <algorithm>

namespace vsched {

ThreadPool::ThreadPool(int threads) {
  unsigned n = threads > 0 ? static_cast<unsigned>(threads) : std::thread::hardware_concurrency();
  n = std::max(1u, n);
  shards_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  DropSpent();
}

void ThreadPool::DropSpent() {
  std::vector<std::function<void()>> spent;
  {
    std::lock_guard<std::mutex> lock(spent_mu_);
    spent.swap(spent_);
  }
}

void ThreadPool::Push(std::function<void()> fn) {
  size_t shard = next_shard_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  {
    std::lock_guard<std::mutex> lock(shards_[shard]->mu);
    shards_[shard]->tasks.push_back(std::move(fn));
  }
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    ++pending_;
  }
  work_cv_.notify_one();
}

bool ThreadPool::Take(size_t self, std::function<void()>& out) {
  {
    Shard& own = *shards_[self];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      out = std::move(own.tasks.front());
      own.tasks.pop_front();
      return true;
    }
  }
  for (size_t i = 1; i < shards_.size(); ++i) {
    Shard& victim = *shards_[(self + i) % shards_.size()];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.tasks.empty()) {
      out = std::move(victim.tasks.back());
      victim.tasks.pop_back();
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(size_t self) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(sleep_mu_);
      work_cv_.wait(lock, [this] { return pending_ > 0 || stopping_; });
      if (pending_ == 0) {
        return;  // stopping_ and nothing left to drain
      }
      --pending_;
    }
    // pending_ was decremented for us, so some shard holds a task; stealing
    // makes the scan guaranteed to find one.
    while (!Take(self, task)) {
    }
    task();
    std::lock_guard<std::mutex> lock(spent_mu_);
    spent_.push_back(std::move(task));
  }
}

}  // namespace vsched
