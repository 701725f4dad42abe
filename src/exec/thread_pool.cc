#include "exec/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace malleus {
namespace exec {

void WaitGroup::Add(int64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  count_ += n;
  MALLEUS_CHECK_GE(count_, 0);
}

void WaitGroup::Done() {
  std::lock_guard<std::mutex> lock(mu_);
  MALLEUS_CHECK_GT(count_, 0);
  if (--count_ == 0) cv_.notify_all();
}

void WaitGroup::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return count_ == 0; });
}

ThreadPool::ThreadPool(int num_threads) {
  MALLEUS_CHECK_GE(num_threads, 1);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  size_t target;
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    target = next_worker_;
    next_worker_ = (next_worker_ + 1) % workers_.size();
    ++queued_;
  }
  {
    std::lock_guard<std::mutex> lock(workers_[target]->mu);
    workers_[target]->queue.push_back(std::move(task));
  }
  wake_cv_.notify_one();
}

std::function<void()> ThreadPool::TakeTask(int worker_index) {
  const size_t n = workers_.size();
  // Own deque first, newest task first (LIFO).
  {
    Worker& own = *workers_[worker_index];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.queue.empty()) {
      std::function<void()> task = std::move(own.queue.back());
      own.queue.pop_back();
      return task;
    }
  }
  // Steal from siblings, oldest task first (FIFO), scanning from the next
  // worker so steals spread instead of hammering worker 0.
  for (size_t d = 1; d < n; ++d) {
    Worker& victim = *workers_[(worker_index + d) % n];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.queue.empty()) {
      std::function<void()> task = std::move(victim.queue.front());
      victim.queue.pop_front();
      return task;
    }
  }
  return nullptr;
}

void ThreadPool::WorkerLoop(int worker_index) {
  while (true) {
    std::function<void()> task = TakeTask(worker_index);
    if (task) {
      {
        std::lock_guard<std::mutex> lock(wake_mu_);
        --queued_;
      }
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait(lock, [this] { return stop_ || queued_ > 0; });
    if (stop_ && queued_ == 0) return;
  }
}

namespace {

// MALLEUS_PLANNER_THREADS when it holds a whole positive integer, else 0.
int PlannerThreadsFromEnv() {
  const char* env = std::getenv("MALLEUS_PLANNER_THREADS");
  int threads = 0;
  if (env == nullptr || !ParseValue(env, &threads).ok()) return 0;
  return std::max(threads, 0);
}

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

}  // namespace

int DefaultPlannerThreads() {
  const int env = PlannerThreadsFromEnv();
  return env >= 1 ? env : HardwareThreads();
}

int ConcurrencyCap() {
  return std::max(HardwareThreads(), PlannerThreadsFromEnv());
}

void ParallelFor(ThreadPool* pool, int64_t n,
                 const std::function<void(int64_t)>& body) {
  if (pool == nullptr || n <= 1) {
    for (int64_t i = 0; i < n; ++i) body(i);
    return;
  }
  // One runner per worker (never more runners than iterations); each runner
  // claims iterations from the shared counter until the range drains.
  const int64_t runners = std::min<int64_t>(pool->num_threads(), n);
  std::atomic<int64_t> next(0);
  WaitGroup wg;
  wg.Add(runners);
  for (int64_t r = 0; r < runners; ++r) {
    pool->Submit([&body, &wg, &next, n] {
      for (int64_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        body(i);
      }
      wg.Done();
    });
  }
  wg.Wait();
}

}  // namespace exec
}  // namespace malleus
