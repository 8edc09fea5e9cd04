#ifndef SHIELD_UTIL_THREAD_POOL_H_
#define SHIELD_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace shield {

/// A fixed-size worker pool with a FIFO queue. Used for background
/// flush/compaction jobs and for SHIELD's multi-threaded chunk
/// encryption.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  /// Runs every queued job, including those queued by running jobs,
  /// then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a job. Safe from any thread, including pool workers.
  void Schedule(std::function<void()> job);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace shield

#endif  // SHIELD_UTIL_THREAD_POOL_H_
