#include "util/periodic_task.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "util/clock.h"

namespace shield {

namespace {

// Longest single condition-variable wait. A huge interval would
// overflow the nanosecond time point inside wait_for; waiting in
// bounded steps and re-reading the clock gives the same deadline.
constexpr uint64_t kMaxWaitMicros = 3600ull * 1000 * 1000;

uint64_t DeadlineAfter(uint64_t micros) {
  const uint64_t now = NowMicros();
  return now + std::min(micros, std::numeric_limits<uint64_t>::max() - now);
}

}  // namespace

void PeriodicTask::Start(uint64_t interval_micros, std::function<void()> fn,
                         bool run_now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_ || thread_.joinable() || (interval_micros == 0 && !run_now)) {
    return;
  }
  // The first deadline is fixed here, not when the thread gets going,
  // so a clock moved right after Start() still counts.
  const uint64_t first = run_now ? 0 : DeadlineAfter(interval_micros);
  thread_ = std::thread([this, interval_micros, fn = std::move(fn), first] {
    for (uint64_t deadline = first; WaitUntil(deadline);
         deadline = DeadlineAfter(interval_micros)) {
      fn();
      if (interval_micros == 0) {
        return;
      }
    }
  });
}

void PeriodicTask::Stop() {
  std::thread thread;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    thread = std::move(thread_);
  }
  cv_.notify_all();
  if (thread.joinable()) {
    thread.join();
  }
}

bool PeriodicTask::stopping() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stop_;
}

bool PeriodicTask::Pace(uint64_t micros) {
  return WaitUntil(DeadlineAfter(micros));
}

void PeriodicTask::Wake() {
  // Taking mu_ orders the notify after a waiter's clock read, so the
  // wake-up cannot fall between that read and its wait.
  { std::lock_guard<std::mutex> lock(mu_); }
  cv_.notify_all();
}

bool PeriodicTask::WaitUntil(uint64_t deadline_micros) {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    const uint64_t now = NowMicros();
    if (now >= deadline_micros) {
      return true;
    }
    cv_.wait_for(lock, std::chrono::microseconds(std::min(
                           deadline_micros - now, kMaxWaitMicros)));
  }
  return false;
}

}  // namespace shield
