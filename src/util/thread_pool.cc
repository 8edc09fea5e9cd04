#include "util/thread_pool.h"

#include "util/perf_context.h"

namespace shield {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = 1;
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; i++) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) {
    t.join();
  }
}

void ThreadPool::Schedule(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
  }
  work_cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
    if (queue_.empty()) {
      // shutting_down_ and drained.
      return;
    }
    std::function<void()> job = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    // Pooled threads outlive the ops they serve: chunk-decrypt and
    // shard-apply jobs charge this thread's PerfContext, and whatever
    // they leave behind would be misattributed to the next op that
    // lands on this worker. Each job starts from a zeroed context.
    GetPerfContext()->Reset();
    job();
    lock.lock();
  }
}

}  // namespace shield
