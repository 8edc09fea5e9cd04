#ifndef SHIELD_LSM_ERROR_HANDLER_H_
#define SHIELD_LSM_ERROR_HANDLER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lsm/options.h"
#include "util/event_logger.h"
#include "util/retry.h"
#include "util/status.h"

namespace shield {

/// Which background operation failed. Drives severity classification:
/// the same Status can be survivable from one source and fatal from
/// another (an IOError writing an SST leaves the old state intact; an
/// IOError writing the MANIFEST may leave the version log torn).
enum class BackgroundErrorReason {
  kFlush = 0,
  kCompaction,
  kWalAppend,
  kWalSync,
  kManifestWrite,
  kOffload,
  kScrub,
  kRotation,
};

constexpr int kNumBackgroundErrorReasons = 8;

/// How bad a background failure is.
///   kTransient — retry in place with backoff; no durable state lost.
///   kSoft      — writes stop (read-only mode); reads stay correct
///                because LSM files are immutable and the failed
///                output was discarded. Operator can Resume().
///   kHard      — persistent state may be inconsistent (manifest
///                damage, corruption): the DB halts; only re-opening
///                (which re-runs recovery) clears it.
enum class ErrorSeverity {
  kTransient = 0,
  kSoft,
  kHard,
};

/// The DB-wide state machine driven by classified background errors:
///
///   kActive ──transient──▶ kRecovering ──success──▶ kActive
///      │                        │
///      │                        └─attempts exhausted─┐
///      ├──────soft (IOError flush/compaction)────────▶ kReadOnly
///      │                                                  │
///      │                                       Resume()   │
///      │                                          ◀───────┘
///      └──────hard (manifest / corruption)──▶ kHalted  (reopen only)
enum class DbErrorState {
  kActive = 0,
  kRecovering,
  kReadOnly,
  kHalted,
};

const char* BackgroundErrorReasonName(BackgroundErrorReason reason);
const char* ErrorSeverityName(ErrorSeverity severity);
const char* DbErrorStateName(DbErrorState state);

/// Summary of one completed memtable flush (OnFlushCompleted).
struct FlushJobInfo {
  uint64_t file_number = 0;  // the new level-0 SST
  uint64_t file_size = 0;    // bytes written (post-encryption framing)
  uint64_t micros = 0;       // wall time of the table build
};

/// Summary of one completed compaction (OnCompactionCompleted).
struct CompactionJobInfo {
  int level = 0;         // input level
  int output_level = 0;
  int output_files = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t micros = 0;
};

/// Observer of background failures, recovery transitions and scrubber
/// activity. All callbacks run with the DB mutex held: implementations
/// must be fast and must not call back into the DB.
class EventListener {
 public:
  virtual ~EventListener() = default;

  /// A background operation failed. Fired for every classified
  /// failure, including transient ones that will be retried.
  virtual void OnBackgroundError(BackgroundErrorReason /*reason*/,
                                 const Status& /*status*/,
                                 ErrorSeverity /*severity*/) {}

  /// The DB entered kRecovering: a transient failure was observed and
  /// automatic retries begin.
  virtual void OnErrorRecoveryBegin(BackgroundErrorReason /*reason*/,
                                    const Status& /*status*/) {}

  /// Recovery finished. `final_status` is OK when the DB returned to
  /// kActive (auto-resume or manual Resume()); otherwise it is the
  /// error the DB escalated with.
  virtual void OnErrorRecoveryEnd(const Status& /*final_status*/) {}

  /// The scrubber (or a read) proved a file fails CRC/MAC
  /// verification.
  virtual void OnIntegrityViolation(const std::string& /*fname*/,
                                    const Status& /*status*/) {}

  /// The scrubber replaced a corrupt file with a verified copy.
  /// `from_replica` distinguishes DS-replica re-fetch from local
  /// salvage.
  virtual void OnFileRepaired(const std::string& /*fname*/,
                              bool /*from_replica*/) {}

  /// A memtable flush produced (and installed) a new level-0 SST.
  /// Also fired for flushes performed during WAL-replay recovery.
  virtual void OnFlushCompleted(const FlushJobInfo& /*info*/) {}

  /// A compaction's outputs were installed in the manifest. Not fired
  /// for trivial moves or FIFO deletions (no bytes rewritten).
  virtual void OnCompactionCompleted(const CompactionJobInfo& /*info*/) {}
};

/// Classifies background failures by (reason, status), drives the
/// DbErrorState machine, and schedules bounded auto-resume retries for
/// transient errors via a RetryPolicy.
///
/// Thread-compatible, not thread-safe: DBImpl calls every method with
/// its mutex held.
class ErrorHandler {
 public:
  ErrorHandler() = default;

  /// `event_logger` (optional, not owned, must outlive the handler)
  /// receives an `error_state` JSON event on every DbErrorState
  /// transition.
  void Configure(const RetryPolicy& resume_policy,
                 std::vector<std::shared_ptr<EventListener>> listeners,
                 EventLogger* event_logger = nullptr);

  /// Pure classification; exposed for tests. `retries_exhausted` marks
  /// a transient status whose retry budget is spent.
  static ErrorSeverity Classify(BackgroundErrorReason reason, const Status& s,
                                bool retries_exhausted);

  /// Records a background failure. For transient errors within the
  /// retry budget, enters kRecovering and returns the backoff in
  /// microseconds before the job should run again. Otherwise escalates
  /// (kReadOnly or kHalted per Classify), sets the sticky background
  /// error, and returns 0.
  uint64_t OnBackgroundError(BackgroundErrorReason reason, const Status& s);

  /// Records a foreground (write-path) failure for listener visibility
  /// and counters. Does not change the DB state: WAL damage is handled
  /// by taint-and-roll in the write path itself.
  void OnForegroundError(BackgroundErrorReason reason, const Status& s);

  /// The given background operation completed cleanly: clears its
  /// retry counter and, if no other reason is mid-retry, completes
  /// recovery back to kActive.
  void OnOperationSucceeded(BackgroundErrorReason reason);

  /// Manual operator recovery from kReadOnly: clears the background
  /// error and returns to kActive. Refused (returns the sticky error)
  /// in kHalted — hard errors require a re-open. No-op when already
  /// active.
  Status Resume();

  /// True when background work may be scheduled and writes accepted
  /// (kActive or kRecovering).
  bool ok() const { return bg_error_.ok(); }

  /// True unless the DB is halted: soft errors keep reads available.
  bool reads_allowed() const { return state_ != DbErrorState::kHalted; }

  const Status& bg_error() const { return bg_error_; }
  DbErrorState state() const { return state_; }

  /// Completed recoveries (automatic + manual Resume()).
  uint64_t recoveries() const { return recoveries_; }

 private:
  void Escalate(BackgroundErrorReason reason, const Status& s,
                ErrorSeverity severity);
  bool AnyRetryPending() const;
  /// Emits an error_state event when the state actually changed.
  void TransitionTo(DbErrorState next, const char* cause);

  RetryPolicy policy_ = DefaultBackgroundResumePolicy();
  std::vector<std::shared_ptr<EventListener>> listeners_;
  EventLogger* event_logger_ = nullptr;

  DbErrorState state_ = DbErrorState::kActive;
  Status bg_error_;
  std::array<int, kNumBackgroundErrorReasons> attempts_{};
  uint64_t rnd_state_ = 0x5e7e7;
  uint64_t recoveries_ = 0;
};

}  // namespace shield

#endif  // SHIELD_LSM_ERROR_HANDLER_H_
