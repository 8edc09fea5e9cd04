#ifndef SHIELD_LSM_DB_H_
#define SHIELD_LSM_DB_H_

#include <string>
#include <vector>

#include "lsm/iterator.h"
#include "lsm/options.h"
#include "lsm/snapshot.h"
#include "lsm/write_batch.h"
#include "util/health.h"
#include "util/slice.h"
#include "util/status.h"
#include "util/trace.h"

namespace shield {

/// Controls DB::RotateDeks.
struct RotateOptions {
  /// Only SSTs whose DEK is older than this are rewritten; 0 rotates
  /// every live SST. Files whose DEK age is unknown (created before
  /// this process started) are treated as infinitely old.
  uint64_t max_dek_age_micros = 0;

  /// At most this many files are rewritten per call; 0 = no limit.
  /// A bounded call leaves the remainder persisted in the rotation
  /// manifest, to be finished by a later call, the background rotation
  /// job, or resume-after-reopen.
  uint64_t max_files = 0;

  /// Throttle on rewrite throughput (bytes of source SST per second);
  /// 0 = unthrottled. Overrides Options::rotation_bytes_per_second.
  uint64_t bytes_per_second = 0;
};

/// What DB::RotateDeks accomplished.
struct RotateResult {
  /// Files rewritten to a fresh DEK by this call.
  uint64_t files_rotated = 0;
  /// Source bytes rewritten.
  uint64_t bytes_rotated = 0;
  /// Planned files skipped because they left the live version before
  /// their turn (compacted away — their DEKs died with them).
  uint64_t files_skipped = 0;
  /// Files still pending in the rotation manifest (non-zero only when
  /// RotateOptions::max_files cut the pass short or a file failed).
  uint64_t files_pending = 0;
};

/// Controls DB::CreateBackup.
struct BackupOptions {
  /// Server identity the backup's DEKs are re-wrapped for (via
  /// Kds::RewrapDek). Empty: DEK ids are copied as-is, and the restore
  /// target must be able to resolve the *source's* ids.
  std::string target_server_id;

  /// Key for the backup's per-file HMAC-SHA256 integrity tags. Both
  /// sides of a backup/restore must agree on it.
  std::string hmac_key = "shield-backup";

  /// Flush the memtable first so the backup captures everything
  /// acknowledged before the call (the WAL is copied either way).
  bool flush_before_backup = true;
};

/// Controls DB::RestoreBackup.
struct RestoreOptions {
  /// Must match the BackupOptions::hmac_key the backup was created
  /// with.
  std::string hmac_key = "shield-backup";
};

/// Controls DB::IngestExternalFile.
struct IngestOptions {
  /// Delete the source file after a successful ingest (the DB owns its
  /// own copy either way; this just cleans up migration staging).
  bool move_file = false;
};

/// What DB::IngestExternalFile accomplished.
struct IngestResult {
  /// File number the table was installed under.
  uint64_t file_number = 0;
  /// Entries in the ingested table.
  uint64_t entries = 0;
  /// Physical bytes now referenced by the DB.
  uint64_t bytes = 0;
  /// True when the file arrived SHIELD-encrypted and its embedded DEK
  /// was re-wrapped onto this instance's identity (kShield only).
  bool dek_rewrapped = false;
};

/// Controls DB::DumpRange.
struct DumpOptions {
  /// Server identity the dump's DEKs are re-wrapped for (via
  /// Kds::RewrapDek), so the dump can be ingested by that identity
  /// even after this instance's keys are revoked. Empty: the dump
  /// files keep DEK ids provisioned to *this* instance. kShield only.
  std::string target_server_id;

  /// Key for the dump manifest's per-file HMAC-SHA256 integrity tags.
  /// Both sides of a dump/restore must agree on it.
  std::string hmac_key = "shield-backup";

  /// Output SSTs are cut at roughly this many (logical) bytes so a
  /// large range dumps as a set of ingestible pieces.
  uint64_t max_file_bytes = 8 * 1024 * 1024;
};

/// The public LSM-KVS interface. Thread safe: concurrent reads and
/// writes from any number of threads.
///
/// Encryption is selected via Options::encryption:
///  * kNone   — plaintext baseline ("unencrypted RocksDB" in the paper)
///  * kEncFS  — instance-level transparent encryption (Section 4)
///  * kShield — SHIELD embedded encryption with per-file DEKs,
///              compaction-driven rotation, buffered WAL encryption and
///              metadata DEK sharing (Section 5)
class DB {
 public:
  /// Opens (creating if configured) the database at `name`.
  static Status Open(const Options& options, const std::string& name,
                     DB** dbptr);

  /// Opens a read-only instance over an existing database directory —
  /// the disaggregated-storage read-only-instance mechanism. No WAL is
  /// written, no compaction runs; Put/Delete/Write return
  /// NotSupported. Call TryCatchUp() to pick up new state persisted by
  /// the primary.
  static Status OpenReadOnly(const Options& options, const std::string& name,
                             DB** dbptr);

  DB() = default;
  virtual ~DB() = default;

  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;

  virtual Status Put(const WriteOptions& options, const Slice& key,
                     const Slice& value) = 0;
  virtual Status Delete(const WriteOptions& options, const Slice& key) = 0;
  virtual Status Write(const WriteOptions& options, WriteBatch* updates) = 0;

  /// Fills *value; NotFound if the key does not exist.
  virtual Status Get(const ReadOptions& options, const Slice& key,
                     std::string* value) = 0;

  /// Batched point lookup: returns one status per key (OK with
  /// (*values)[i] filled, or NotFound) — exactly what `keys.size()`
  /// sequential Gets against one snapshot would return, but all keys
  /// share a single snapshot/version reference, one index probe pass
  /// per table, and adjacent block fetches coalesce into single
  /// storage round trips (the win on disaggregated storage, where
  /// each round trip costs an RTT). `values` is resized to match.
  virtual std::vector<Status> MultiGet(const ReadOptions& options,
                                       const std::vector<Slice>& keys,
                                       std::vector<std::string>* values) = 0;

  /// Heap-allocated iterator over the whole keyspace (caller deletes
  /// before closing the DB).
  virtual Iterator* NewIterator(const ReadOptions& options) = 0;

  virtual const Snapshot* GetSnapshot() = 0;
  virtual void ReleaseSnapshot(const Snapshot* snapshot) = 0;

  /// Forces the current memtable to be flushed to an SST and waits.
  virtual Status Flush() = 0;

  /// Compacts the key range [begin, end]; nullptr means open-ended.
  /// Under SHIELD this re-encrypts the range under fresh DEKs.
  virtual Status CompactRange(const Slice* begin, const Slice* end) = 0;

  /// DB introspection. Supported properties:
  ///   "shield.num-files-at-level<N>", "shield.stats",
  ///   "shield.io-stats", "shield.sstables", "shield.kds-requests",
  ///   "shield.dek-cache-hits", "shield.approximate-memtable-bytes",
  ///   "shield.stall-micros", "shield.offload-fallbacks",
  ///   "shield.recovery-salvaged-logs",
  ///   "shield.error-handler-state", "shield.background-error",
  ///   "shield.error-recoveries", "shield.scrub-corruptions-detected",
  ///   "shield.scrub-repaired-files", "shield.scrub-quarantined-files",
  ///   "shield.levelstats" (files/bytes per level, one row per level),
  ///   "shield.dek-cache-stats" (hits/misses/evictions/entries),
  ///   "shield.crypto-dispatch" (AES-CTR, SHA-256 and CRC32C kernel
  ///   tiers, e.g. "aes-ctr=vaes512 sha256=sha-ni crc32c=sse4.2"),
  ///   "shield.rotation-state" ("idle" | "running" | "pending:<n>"),
  ///   "shield.rotation-files-rotated", "shield.dek.pending-deletes",
  ///   "shield.metrics" (Prometheus text exposition of all tickers and
  ///   histograms; requires Options::statistics)
  /// "shield.stats" includes the per-level compaction table, the
  /// physical I/O split, and — when Options::statistics is set — the
  /// full ticker/histogram dump (util/statistics.h).
  virtual bool GetProperty(const Slice& property, std::string* value) = 0;

  /// Starts recording a trace of this DB's activity into `trace_path`
  /// (written through the physical env): spans for DB ops, flush and
  /// compaction jobs, crypto work, KDS round trips, DS fabric
  /// transfers, and physical I/O (util/trace.h describes the format;
  /// tools/trace_replay analyzes and re-executes it). One trace can be
  /// active per process; a second StartTrace returns Busy. Default
  /// implementation returns NotSupported (read-only instances).
  virtual Status StartTrace(const TraceOptions& trace_options,
                            const std::string& trace_path) {
    (void)trace_options;
    (void)trace_path;
    return Status::NotSupported("tracing not supported by this DB");
  }

  /// Stops the active trace, draining all span buffers to the file.
  /// Returns the first trace-file write error, if any.
  virtual Status EndTrace() {
    return Status::NotSupported("tracing not supported by this DB");
  }

  /// Walks every live SST and verifies each block's CRC — and, on
  /// authenticated files, its HMAC tag — with fresh reads that bypass
  /// the block cache. Corrupt files are quarantined and, when
  /// Options::scrub_repair is set, repaired from the configured
  /// FileReplicaSource (disaggregated deployments) or salvaged locally.
  /// Returns OK when every live file verified clean or was repaired;
  /// otherwise the first unrepaired corruption.
  virtual Status VerifyIntegrity() = 0;

  /// Online DEK rotation (active key lifecycle, beyond the paper's
  /// passive rotation-via-compaction): rewrites live SSTs selected by
  /// `options` to fresh DEKs through the table-rewrite path, persisting
  /// progress in a rotation manifest after every file so a crash
  /// resumes instead of restarting. The old DEK is destroyed only
  /// after the replacement is durable. Pauses (returns the background
  /// error) when the DB is read-only or halted. Only meaningful under
  /// kShield; other modes return NotSupported.
  virtual Status RotateDeks(const RotateOptions& options,
                            RotateResult* result) {
    (void)options;
    (void)result;
    return Status::NotSupported("DEK rotation not supported by this DB");
  }

  /// Encrypted backup: copies the current version's SSTs, the version
  /// MANIFEST, CURRENT and the live WAL into `backup_dir` with a
  /// per-file HMAC manifest; under kShield every embedded DEK id is
  /// re-wrapped for BackupOptions::target_server_id so the backup can
  /// be restored by a different server identity even after the
  /// source's keys are revoked. `backup_dir` must not already contain
  /// a backup.
  virtual Status CreateBackup(const std::string& backup_dir,
                              const BackupOptions& options) {
    (void)backup_dir;
    (void)options;
    return Status::NotSupported("backup not supported by this DB");
  }

  /// Restores a backup created by CreateBackup into `dbname` (which
  /// must not exist), verifying the backup manifest's MAC and every
  /// file's HMAC first. The restored directory is opened normally with
  /// DB::Open — under kShield, with Options whose server_id is the
  /// backup's target identity.
  static Status RestoreBackup(const Options& options,
                              const std::string& backup_dir,
                              const std::string& dbname,
                              const RestoreOptions& restore_options);

  /// Verifies a backup without restoring it: checks the backup
  /// manifest's MAC and every listed file's size and HMAC. Exactly the
  /// checks RestoreBackup performs before writing anything.
  static Status VerifyBackup(const Options& options,
                             const std::string& backup_dir,
                             const RestoreOptions& restore_options);

  /// Bulk ingest: installs an externally produced SST (in this
  /// engine's table format — e.g. a DumpRange output) as a level-0
  /// file. A plaintext SST is re-built through the DB's own encryption
  /// path (fresh DEK under kShield); a SHIELD-encrypted SST is adopted
  /// byte-for-byte after its embedded DEK is re-wrapped onto this
  /// instance's identity via Kds::RewrapDek and registered with the
  /// DekManager. Fails closed: a malformed SHIELD header, an
  /// unresolvable DEK or a table that does not parse rejects the file
  /// without touching DB state. `result` may be null.
  virtual Status IngestExternalFile(const std::string& file_path,
                                    const IngestOptions& options,
                                    IngestResult* result) {
    (void)file_path;
    (void)options;
    (void)result;
    return Status::NotSupported("ingest not supported by this DB");
  }

  /// Bulk export: writes the live data in [begin, end] (nullptr =
  /// open-ended; latest visible versions, tombstones resolved) into
  /// `dump_dir` as a set of freshly built SSTs plus a MAC'd
  /// DUMP_MANIFEST, each file encrypted under a fresh DEK re-wrapped
  /// for DumpOptions::target_server_id. Together with
  /// IngestExternalFile/RestoreDump this seeds and migrates fleet
  /// members between KDS identities without copying a whole DB
  /// directory. `dump_dir` must not already contain a dump.
  virtual Status DumpRange(const std::string& dump_dir, const Slice* begin,
                           const Slice* end, const DumpOptions& options) {
    (void)dump_dir;
    (void)begin;
    (void)end;
    (void)options;
    return Status::NotSupported("dump not supported by this DB");
  }

  /// Restores a DumpRange output into the DB at `dbname` (created with
  /// `options` if missing — under kShield, with Options whose
  /// server_id is the dump's target identity), verifying the dump
  /// manifest's MAC and every file's HMAC first, then ingesting each
  /// file and running VerifyIntegrity.
  static Status RestoreDump(const Options& options,
                            const std::string& dump_dir,
                            const std::string& dbname,
                            const RestoreOptions& restore_options);

  /// Verifies a dump without restoring it: manifest MAC plus every
  /// listed file's size and HMAC.
  static Status VerifyDump(const Options& options,
                           const std::string& dump_dir,
                           const RestoreOptions& restore_options);

  /// Manual operator recovery after a soft background error put the DB
  /// in read-only state: clears the sticky error and resumes background
  /// work. Returns the sticky error if the DB is halted (hard errors
  /// require a re-open); OK when already active.
  virtual Status Resume() = 0;

  /// Runs every registered health detector once (write-stall, L0 debt,
  /// WAL pipeline stalls, scrub backlog, KDS reachability, DEK-rotation
  /// progress, replica catch-up lag — see util/health.h) and returns
  /// the level transitions this pass produced; the same transitions are
  /// emitted as "health_transition" events and mirrored into
  /// `shield_health_*` gauges. Current state is readable without
  /// re-evaluating via the "shield.health" property. `transitions` may
  /// be null.
  virtual Status EvaluateHealth(std::vector<HealthTransition>* transitions) {
    (void)transitions;
    return Status::NotSupported("health monitoring not supported by this DB");
  }

  /// Read-only instances: re-reads the manifest/WALs to observe the
  /// primary's latest persisted state. Primary instances return OK
  /// without doing anything.
  virtual Status TryCatchUp() = 0;

  /// Blocks until all scheduled background flushes and compactions
  /// have drained (including work they cascade into). Useful for
  /// tests and benchmarks that need a quiesced LSM shape.
  virtual void WaitForIdle() = 0;
};

/// Deletes all files of the database at `name`. Use with care.
Status DestroyDB(const Options& options, const std::string& name);

}  // namespace shield

#endif  // SHIELD_LSM_DB_H_
