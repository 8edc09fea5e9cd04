#ifndef SHIELD_UTIL_PERIODIC_TASK_H_
#define SHIELD_UTIL_PERIODIC_TASK_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

namespace shield {

/// A background thread that runs a closure every interval: the DB's
/// scrubber, rotation job, deferred-deletion retry and health
/// evaluator each own one. Deadlines are read from the process clock
/// (util/clock.h). The thread waits on a condition variable for the
/// remaining time and re-reads the clock whenever it wakes, so under a
/// virtual clock a test moves the clock and calls Wake() instead of
/// waiting real time. The interval runs from the end of one run to the
/// start of the next.
class PeriodicTask {
 public:
  PeriodicTask() = default;
  ~PeriodicTask() { Stop(); }

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  /// Starts the thread. It runs `fn` once at once when `run_now`, then
  /// every `interval_micros` until Stop(). An interval of 0 runs `fn`
  /// only for `run_now`, and starts no thread without it. Does nothing
  /// on a task that is already started or has been stopped.
  void Start(uint64_t interval_micros, std::function<void()> fn,
             bool run_now = false);

  /// Ends an idle wait or a Pace() at once, lets a run of `fn` in
  /// progress finish, and joins the thread. A stopped task stays
  /// stopped. Idempotent; never call it from `fn`.
  void Stop();

  /// True once Stop() has been called. A pass checks it between units
  /// of work.
  bool stopping() const;

  /// Waits `micros` of process-clock time, or until Stop(). Returns
  /// false when the task is stopping. For throttled passes inside `fn`.
  bool Pace(uint64_t micros);

  /// Makes the waiting thread re-read the clock now: it runs `fn` if
  /// the deadline has passed.
  void Wake();

 private:
  /// Waits until the process clock reaches `deadline_micros`; false
  /// when the task stops first.
  bool WaitUntil(uint64_t deadline_micros);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::thread thread_;  // guarded by mu_
};

}  // namespace shield

#endif  // SHIELD_UTIL_PERIODIC_TASK_H_
