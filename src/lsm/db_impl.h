#ifndef SHIELD_LSM_DB_IMPL_H_
#define SHIELD_LSM_DB_IMPL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "env/io_stats.h"
#include "lsm/compaction_service.h"
#include "lsm/db.h"
#include "lsm/error_handler.h"
#include "lsm/file_lease.h"
#include "lsm/log_writer.h"
#include "lsm/memtable.h"
#include "lsm/rotation_manifest.h"
#include "lsm/snapshot.h"
#include "lsm/version_set.h"
#include "shield/dek_manager.h"
#include "shield/file_crypto.h"
#include "util/event_logger.h"
#include "util/health.h"
#include "util/histogram.h"
#include "util/metrics.h"
#include "util/periodic_task.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace shield {

class DBImpl final : public DB {
 public:
  DBImpl(const Options& raw_options, const std::string& dbname,
         bool read_only);
  ~DBImpl() override;

  DBImpl(const DBImpl&) = delete;
  DBImpl& operator=(const DBImpl&) = delete;

  // DB interface.
  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) override;
  std::vector<Status> MultiGet(const ReadOptions& options,
                               const std::vector<Slice>& keys,
                               std::vector<std::string>* values) override;
  Iterator* NewIterator(const ReadOptions& options) override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  Status Flush() override;
  Status CompactRange(const Slice* begin, const Slice* end) override;
  bool GetProperty(const Slice& property, std::string* value) override;
  Status GetLiveSstFiles(std::vector<std::string>* paths) override;
  Status TryCatchUp() override;
  void WaitForIdle() override;
  Status VerifyIntegrity() override;
  Status Resume() override;
  Status StartTrace(const TraceOptions& trace_options,
                    const std::string& trace_path) override;
  Status EndTrace() override;
  Status EvaluateHealth(std::vector<HealthTransition>* transitions) override;
  Status RotateDeks(const RotateOptions& options,
                    RotateResult* result) override;
  Status CreateBackup(const std::string& backup_dir,
                      const BackupOptions& options) override;
  Status IngestExternalFile(const std::string& file_path,
                            const IngestOptions& options,
                            IngestResult* result) override;
  Status DumpRange(const std::string& dump_dir, const Slice* begin,
                   const Slice* end, const DumpOptions& options) override;

  /// Startup: recover manifest + WALs. Called by DB::Open.
  Status Recover();

  DekManager* dek_manager() { return dek_manager_.get(); }

 private:
  friend class DB;

  struct LogWriterBatch;

  // A queued writer (group commit).
  struct Writer {
    Writer() = default;
    Status status;
    WriteBatch* batch = nullptr;
    bool sync = false;
    bool done = false;
    std::condition_variable cv;
  };

  struct CompactionStats {
    int64_t micros = 0;
    int64_t bytes_read = 0;
    int64_t bytes_written = 0;
    int64_t count = 0;

    void Add(const CompactionStats& c) {
      micros += c.micros;
      bytes_read += c.bytes_read;
      bytes_written += c.bytes_written;
      count += c.count;
    }
  };

  // Setup helpers (db_impl.cc).
  Status SetupEncryption();
  Status NewDb();
  void RemoveObsoleteFiles();  // mutex_ held
  /// Writer: runs a GC pass if any deletion is deferred. The lease-release
  /// listener DB::Open registers calls it, and deferred_deletion_task_
  /// every kDeferredDeletionRetryMicros; mutex_ not held.
  void RetryDeferredDeletions();
  /// Creates the info LOG (unless Options supplied one) and emits the
  /// db_open event with sanitized options + build info.
  void SetupInfoLog();

  // Write path (db_write.cc).
  Status MakeRoomForWrite(std::unique_lock<std::mutex>& lock, bool force);
  WriteBatch* BuildBatchGroup(Writer** last_writer);
  Status SwitchMemTable(std::unique_lock<std::mutex>& lock);

  /// Bytes block_cache_ charges now (0 without one).
  size_t BlockCacheUsage() const {
    return block_cache_ != nullptr ? block_cache_->TotalCharge() : 0;
  }

  // Read path (db_read.cc).
  /// Marks that a Get, MultiGet or iterator ran, for the next flush's
  /// write-through gate (foreground_read_).
  void NoteForegroundRead() {
    if (!foreground_read_.load()) {
      foreground_read_.store(true);
    }
  }
  Iterator* NewInternalIterator(const ReadOptions& options,
                                SequenceNumber* latest_snapshot);

  // Recovery (db_recovery.cc).
  /// Replays one WAL. With `replica_mem` set (read-only instances)
  /// every record goes into it; otherwise records fill memtables that
  /// are flushed to level-0 SSTs recorded in *edit.
  Status RecoverLogFile(uint64_t log_number, MemTable* replica_mem,
                        SequenceNumber* max_sequence, VersionEdit* edit);
  /// The WALs in the DB directory numbered `min_log` or above, in
  /// ascending order.
  Status ListLogFiles(uint64_t min_log, std::vector<uint64_t>* logs);
  /// Read-only instances: replays into `mem` every WAL the view of
  /// `versions` needs. Any WAL that cannot be replayed whole fails the
  /// replay: this instance's lease keeps those WALs, so a missing one
  /// means the view cannot be rebuilt, never that it is empty.
  Status ReplayReplicaLogs(const VersionSet& versions, MemTable* mem,
                           SequenceNumber* max_sequence);
  /// Read-only instances: publishes this instance's lease pinning
  /// `position` (lsm/file_lease.h). mutex_ held.
  Status PublishLease(const ManifestPosition& position);
  /// On success with a non-empty output, *pending_output is the new
  /// file's number, still registered in pending_outputs_: the caller
  /// must erase it only AFTER the edit has been installed, or a
  /// concurrent RemoveObsoleteFiles from another background job could
  /// delete the not-yet-referenced file.
  Status WriteLevel0Table(MemTable* mem, VersionEdit* edit,
                          uint64_t* pending_output);

  // Background work (db_compaction.cc). The jobs report failures to
  // error_handler_ with a BackgroundErrorReason attributing the failed
  // layer; `*reason` out-params refine the default attribution (e.g. a
  // flush whose manifest install failed reports kManifestWrite).
  void MaybeScheduleFlush();    // mutex_ held
  void MaybeScheduleCompaction();  // mutex_ held
  // The compaction slot admits one compaction, background or manual,
  // at a time. Acquire waits for it under `lock` (on mutex_) and fails
  // on shutdown or a background error; Release (mutex_ held) frees it,
  // schedules a background compaction if one is due and wakes waiters.
  Status AcquireCompactionSlot(std::unique_lock<std::mutex>* lock);
  void ReleaseCompactionSlot();
  void BackgroundFlush();
  void BackgroundCompaction();
  Status CompactMemTable(BackgroundErrorReason* reason);  // mutex_ held
  Status DoCompactionWork(Compaction* c, BackgroundErrorReason* reason);
  Status DoOffloadedCompaction(Compaction* c, SequenceNumber smallest_snapshot,
                               std::vector<uint64_t>* pinned,
                               std::vector<CompactionOutputMeta>* outputs);
  Status RunManualCompaction(Compaction* c, bool remove_obsolete_files = true);

  // Integrity scrubbing (db_scrub.cc).
  struct ScrubStats {
    uint64_t files_scanned = 0;
    uint64_t corrupt_files = 0;
    uint64_t repaired_files = 0;
  };
  /// One full pass over the live SSTs. `throttle` enables the
  /// scrub_bytes_per_second budget (background passes only): the pass
  /// paces through scrub_task_ and stops between files when it stops.
  Status ScrubPass(bool throttle, ScrubStats* stats);
  Status ScrubFile(int level, uint64_t number, uint64_t file_size,
                   bool throttle);
  /// Quarantine + repair pipeline for one corrupt file.
  Status HandleCorruptFile(int level, uint64_t number, uint64_t file_size,
                           const Status& corruption);
  Status RepairFromReplica(int level, uint64_t number, uint64_t file_size);
  Status SalvageLocally(int level, uint64_t number, uint64_t file_size);
  Status QuarantineFile(uint64_t number);
  /// One background scrub pass; escalates unrepaired corruption.
  void BackgroundScrub();

  // Bulk ingest/dump (db_ingest.cc).
  /// Adopts a SHIELD-encrypted SST byte-for-byte: re-wraps the
  /// embedded DEK onto our identity, patches the header copy and
  /// registers the key. On success *contents holds the patched
  /// physical image to install.
  Status PrepareEncryptedIngest(const std::string& file_path,
                                std::string* contents, bool* rewrapped);
  /// Re-builds a plaintext SST through the DB's own encryption path
  /// into `fname` (already-reserved table file name). *file_size is
  /// the logical size of the rebuilt table.
  Status RebuildPlaintextIngest(const std::string& file_path,
                                const std::string& fname,
                                uint64_t* file_size);
  /// Opens the freshly installed table (logical size `file_size`) to
  /// recover its key range and max sequence, then publishes it at
  /// level 0 and bumps the sequence horizon past its entries.
  Status InstallIngestedFile(uint64_t file_number, uint64_t file_size,
                             IngestResult* result);

  // Cluster health plane (db_health.cc).
  /// Registers the stall/L0/WAL-pipeline/scrub/KDS/rotation/catch-up
  /// detectors with health_monitor_ and wires the transition sink to
  /// the event logger. Called once at the end of Recover().
  void SetupHealthPlane();
  /// Appends this DB's gauge families (health, levels and, on a
  /// replica, the catch-up lag probed now) for the "shield.metrics"
  /// property, in name order.
  /// REQUIRES: mutex_ not held.
  void AppendMetricsGauges(std::string* out);
  /// Replica catch-up lag versus the primary's published state: bytes
  /// of manifest not yet applied and manifest generations behind.
  /// Writers report zero. Returns non-OK when the shared storage is
  /// unreachable (partition) — the catch-up detector's critical edge.
  Status ComputeCatchupLag(uint64_t* lag_bytes, uint64_t* lag_generations);
  /// Records the manifest state a successful Recover/TryCatchUp
  /// applied, the baseline ComputeCatchupLag compares against.
  void RecordCatchupApplied();

  // Online DEK rotation (db_rotation.cc).
  /// RotateDeks for both callers: `background` passes (rotation_task_)
  /// pace through the task, so closing the DB ends their sleeps;
  /// on-demand ones sleep on the process clock.
  Status Rotate(const RotateOptions& options, RotateResult* result,
                bool background);
  /// Executes (or resumes) the rotation described by `manifest`,
  /// persisting progress after every file. rotation_pass_mutex_ held.
  Status RunRotation(RotationManifest* manifest, const RotateOptions& opts,
                     RotateResult* result, bool background);
  /// Rewrites one live SST to a fresh DEK as a one-file compaction in
  /// place at its level; the old file stays on disk for the caller's
  /// GC. Returns OK with *skipped=true when `number` already left the
  /// live version (stale manifest entry).
  Status RotateFile(uint64_t number, uint64_t* bytes, bool* skipped);
  /// One run of rotation_task_: the first resumes a rotation pending
  /// at open, the others are age-based passes.
  void BackgroundRotation();
  /// True when a rotation manifest is pending on disk at open time
  /// (set by Recover, consumed by BackgroundRotation).
  bool ResumePendingRotation();

  // State below.
  const std::string dbname_;
  Options options_;  // env_ may be rewritten to the EncFS wrapper
  bool read_only_;
  const InternalKeyComparator internal_comparator_;

  // The physical (pre-encryption) view of the DB directory, captured
  // before SetupEncryption may rewrite options_.env: quarantine and
  // repair move on-disk images around byte-for-byte, without any
  // encryption layer transforming them.
  Env* raw_env_ = nullptr;

  // Observability plane. The LOG and trace files are written through
  // raw_env_ (deliberately plaintext; no keys or user data ever reach
  // them). event_logger_ wraps the LOG for JSON-lines engine events;
  // tracer_ owns the active trace started via StartTrace.
  // Declared before the env/crypto members that may reference the
  // event logger so it destructs after them.
  std::unique_ptr<EventLogger> event_logger_;
  // I/O tracing env interposed directly above the physical env (below
  // counting + encryption) so io.* spans describe ciphertext traffic.
  std::unique_ptr<Env> owned_tracing_env_;
  Tracer tracer_;
  std::mutex trace_mutex_;  // serializes StartTrace/EndTrace

  // Physical I/O accounting: a counting Env interposed below the
  // encryption layer, so it sees ciphertext traffic (what actually
  // hits storage). Mirrored into options_.statistics when configured.
  // Declared before owned_encrypted_env_: the EncFS wrapper holds a
  // pointer to the counting env, so it must be destroyed first
  // (members destruct in reverse declaration order).
  IoStats io_stats_;
  std::unique_ptr<Env> owned_counting_env_;

  // Encryption plumbing. Order matters for destruction: factory before
  // dek manager before cache/kds.
  std::unique_ptr<Env> owned_encrypted_env_;  // EncFS wrapper, if any
  std::shared_ptr<Kds> kds_;                  // SHIELD (owned or shared)
  std::unique_ptr<SecureDekCache> secure_dek_cache_;
  std::unique_ptr<DekManager> dek_manager_;
  std::unique_ptr<ThreadPool> encryption_pool_;
  std::unique_ptr<DataFileFactory> files_;

  std::shared_ptr<Cache> block_cache_;
  std::unique_ptr<TableCache> table_cache_;
  // Set by every foreground read, taken by each flush: a flush writes
  // its blocks through to block_cache_ only when reads ran since the
  // previous one, so a write-only phase (a bulk load) caches nothing.
  // Checked before it is set, so concurrent readers do not keep
  // writing its cache line.
  std::atomic<bool> foreground_read_{false};

  std::mutex mutex_;
  std::atomic<bool> shutting_down_{false};
  std::condition_variable background_work_finished_signal_;

  MemTable* mem_ = nullptr;
  MemTable* imm_ = nullptr;  // being flushed

  std::unique_ptr<WritableFile> logfile_;
  uint64_t logfile_number_ = 0;
  std::unique_ptr<log::Writer> log_;
  // True after a failed WAL append/sync: the tail may hold a torn
  // record, and log replay stops at the first damaged record, so any
  // further appends to this file could be silently lost at recovery.
  // MakeRoomForWrite rolls to a fresh WAL before the next write.
  bool log_tainted_ = false;  // guarded by mutex_

  // The write queue has a dedicated mutex so arriving writers can
  // enqueue while the leader works under mutex_ (or no lock): groups
  // only form when the queue is reachable during the leader's service
  // time. Lock order: mutex_ before writers_mutex_.
  std::mutex writers_mutex_;
  std::deque<Writer*> writers_;  // guarded by writers_mutex_
  WriteBatch tmp_batch_;         // touched only by the group leader

  SnapshotList snapshots_;
  std::set<uint64_t> pending_outputs_;
  // Writer: the manifest position at which garbage collection first
  // found each obsolete SST or WAL that a file lease still keeps,
  // keyed by file number.
  std::map<uint64_t, ManifestPosition> obsolete_stamps_;
  // Writer: each lease temp file GC has seen, with the time it first
  // saw it.
  std::map<std::string, uint64_t> lease_temps_seen_;
  // Writer: the lease-release listener (lsm/file_lease.h) that lets a
  // read-only instance in this process run this writer's GC; 0 when
  // none is registered.
  uint64_t lease_listener_ = 0;
  // Writer: retries deferred deletions; started by the first GC pass
  // that defers one.
  PeriodicTask deferred_deletion_task_;
  // Read-only instances: this instance's file lease. lease_id_ stays 0
  // until Recover publishes the first lease. All guarded by mutex_.
  uint64_t lease_id_ = 0;
  FileLease lease_;
  // Read-only instances: version sets that TryCatchUp replaced while a
  // reader still held one of their versions, oldest first. The lease
  // pins the oldest of them, so those readers keep their files.
  std::deque<std::unique_ptr<VersionSet>> retired_versions_;

  std::unique_ptr<ThreadPool> bg_pool_;
  bool flush_scheduled_ = false;
  bool compaction_slot_held_ = false;

  std::unique_ptr<VersionSet> versions_;

  // Classifies background failures, drives the DB error state machine
  // and schedules auto-resume retries. All access under mutex_.
  ErrorHandler error_handler_;

  // Background scrubber (db_scrub.cc). scrub_pass_mutex_ serializes
  // passes (the task vs on-demand VerifyIntegrity).
  PeriodicTask scrub_task_;
  std::mutex scrub_pass_mutex_;

  // Background DEK rotation (db_rotation.cc). rotation_pass_mutex_
  // serializes passes (the task vs on-demand RotateDeks).
  PeriodicTask rotation_task_;
  std::mutex rotation_pass_mutex_;
  // True when Recover found a ROTATION manifest on disk; the rotation
  // task's first run (a one-shot run when no interval is configured)
  // finishes that rotation before anything else.
  bool rotation_pending_at_open_ = false;
  std::atomic<bool> rotation_running_{false};
  // Files still owed by the persisted rotation manifest (for the
  // "shield.rotation-state" property).
  std::atomic<uint64_t> rotation_pending_files_{0};

  CompactionStats stats_[kMaxNumLevels];

  // Cluster health plane (db_health.cc). health_monitor_ owns the
  // detector state machines; transitions are emitted as
  // "health_transition" events. health_task_ evaluates it every
  // health_interval_micros.
  HealthMonitor health_monitor_;
  PeriodicTask health_task_;
  // Manifest state the last successful Recover/TryCatchUp applied
  // (read-only instances): baseline for catch-up lag.
  std::atomic<uint64_t> catchup_applied_manifest_{0};
  std::atomic<uint64_t> catchup_applied_manifest_bytes_{0};
};

}  // namespace shield

#endif  // SHIELD_LSM_DB_IMPL_H_
