#include "lsm/db_impl.h"

#include <algorithm>
#include <cstdio>

#include "crypto/cipher.h"
#include "crypto/secure_random.h"
#include "encfs/encrypted_env.h"
#include "env/trace_env.h"
#include "kds/local_kds.h"
#include "lsm/db_iter.h"
#include "lsm/file_names.h"
#include "lsm/merger.h"
#include "util/clock.h"
#include "util/logger.h"

namespace shield {

namespace {

Options SanitizeOptions(const Options& src) {
  Options result = src;
  if (result.comparator == nullptr) {
    result.comparator = BytewiseComparator();
  }
  if (result.env == nullptr) {
    result.env = Env::Default();
  }
  result.num_levels = std::max(1, std::min(result.num_levels, kMaxNumLevels));
  if (result.max_background_jobs < 1) {
    result.max_background_jobs = 1;
  }
  if (result.encryption.encryption_threads < 1) {
    result.encryption.encryption_threads = 1;
  }
  // Normalized once here so the WAL writer and the group-commit batch
  // shaping agree on the exact bucket set.
  result.encryption.wal_padding_buckets =
      log::SanitizePaddingBuckets(result.encryption.wal_padding_buckets);
  // A freshly-created memtable already holds one arena block (the
  // skiplist head), so a write buffer at or below that baseline would
  // make MakeRoomForWrite switch empty memtables forever without ever
  // finding room. Keep the floor a few blocks above the baseline.
  result.write_buffer_size =
      std::max<size_t>(result.write_buffer_size, 16 * 1024);
  // Keep the stall ladder consistent: writers must never stop on a
  // level-0 count that compaction is not even trying to reduce.
  if (result.level0_slowdown_writes_trigger <
      result.level0_file_num_compaction_trigger) {
    result.level0_slowdown_writes_trigger =
        result.level0_file_num_compaction_trigger + 4;
  }
  if (result.level0_stop_writes_trigger <=
      result.level0_slowdown_writes_trigger) {
    result.level0_stop_writes_trigger =
        result.level0_slowdown_writes_trigger + 4;
  }
  return result;
}

}  // namespace

DBImpl::DBImpl(const Options& raw_options, const std::string& dbname,
               bool read_only)
    : dbname_(dbname),
      options_(SanitizeOptions(raw_options)),
      read_only_(read_only),
      internal_comparator_(options_.comparator) {}

DBImpl::~DBImpl() {
  // No read-only instance may start this writer's GC from now on.
  if (lease_listener_ != 0) {
    RemoveLeaseReleaseListener(lease_listener_);
  }
  // Stop the health evaluator before anything it probes is torn down.
  health_task_.Stop();

  // Stop the rotation job first: a pass rewrites files through the
  // manifest. Stopping ends its pacing sleep, and RunRotation checks
  // the task between files, so this returns promptly (leaving the
  // remainder persisted in the rotation manifest for resume-at-reopen).
  rotation_task_.Stop();

  // Stop the scrubber next: a scrub pass holds version references and
  // may schedule repairs that touch the manifest. Its pacing sleep
  // ends at once and the pass stops after the file it is checking.
  scrub_task_.Stop();

  // Wait for background work, then tear down.
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_.store(true, std::memory_order_release);
    background_work_finished_signal_.wait(lock, [this] {
      return !flush_scheduled_ && !compaction_scheduled_;
    });
  }
  bg_pool_.reset();  // joins workers
  deferred_deletion_task_.Stop();

  {
    // Fail any queued writers.
    std::lock_guard<std::mutex> lock(writers_mutex_);
    for (Writer* w : writers_) {
      w->status = Status::IOError("db closed");
      w->done = true;
      w->cv.notify_one();
    }
    writers_.clear();
  }

  if (mem_ != nullptr) {
    mem_->Unref();
  }
  if (imm_ != nullptr) {
    imm_->Unref();
  }
  log_.reset();
  if (logfile_ != nullptr) {
    // Best effort: the destructor has no status channel, and unsynced
    // WAL data carries no durability promise anyway.
    (void)logfile_->Close();
    logfile_.reset();
  }
  if (lease_id_ != 0) {
    // Release this read-only instance's files to the writer's GC. Best
    // effort: a lease left behind expires on its own.
    (void)files_->env()->RemoveFile(LeaseFileName(dbname_, lease_id_));
    NotifyLeaseReleased(dbname_);
  }
  retired_versions_.clear();
  versions_.reset();
  table_cache_.reset();
}

void DBImpl::SetupInfoLog() {
  // mutex_ held; raw_env_ captured. The LOG goes through the physical
  // env on purpose: it is plaintext-by-design and must survive (and
  // help debug) encryption-layer failures. No keys, passkeys or user
  // data are ever written to it.
  if (options_.info_log == nullptr) {
    Status s = NewFileLogger(raw_env_, InfoLogFileName(dbname_),
                             options_.max_log_file_size,
                             options_.keep_log_file_num,
                             options_.info_log_level, &options_.info_log);
    if (!s.ok()) {
      // A DB without a LOG is fully functional; don't fail Open.
      options_.info_log = NewNullLogger();
    }
  } else {
    options_.info_log->SetInfoLogLevel(options_.info_log_level);
  }
  event_logger_ = std::make_unique<EventLogger>(options_.info_log.get(),
                                                options_.statistics.get());

  const EncryptionOptions& enc = options_.encryption;
  const char* mode = "none";
  switch (enc.mode) {
    case EncryptionMode::kNone:
      mode = "none";
      break;
    case EncryptionMode::kEncFS:
      mode = "encfs";
      break;
    case EncryptionMode::kShield:
      mode = "shield";
      break;
  }
  JsonWriter w = event_logger_->NewEvent("db_open");
  w.Add("db", dbname_);
  w.Add("read_only", read_only_);
  w.Add("format_version_base",
        static_cast<uint64_t>(kShieldFormatVersionBase));
  w.Add("format_version_auth",
        static_cast<uint64_t>(kShieldFormatVersionGhash));
  w.Add("encryption_mode", mode);
  w.Add("cipher", crypto::CipherKindName(enc.cipher));
  w.Add("crypto_dispatch", crypto::CryptoDispatch());
  w.Add("authenticate_blocks", enc.authenticate_blocks);
  w.Add("encrypt_wal", enc.encrypt_wal);
  w.Add("wal_buffer_size", static_cast<uint64_t>(enc.wal_buffer_size));
  w.Add("sst_chunk_size", static_cast<uint64_t>(enc.sst_chunk_size));
  w.Add("encryption_threads", enc.encryption_threads);
  w.Add("secure_dek_cache", enc.use_secure_dek_cache);
  w.Add("offloaded_compaction", options_.compaction_service != nullptr);
  w.Add("replica_source", options_.replica_source != nullptr);
  w.Add("write_buffer_size",
        static_cast<uint64_t>(options_.write_buffer_size));
  w.Add("block_cache_size",
        static_cast<uint64_t>(options_.block_cache_size));
  w.Add("num_levels", options_.num_levels);
  w.Add("compaction_style",
        options_.compaction_style == CompactionStyle::kLeveled ? "leveled"
        : options_.compaction_style == CompactionStyle::kUniversal
            ? "universal"
            : "fifo");
  w.Add("max_background_jobs", options_.max_background_jobs);
  w.Add("sync_wal", options_.sync_wal);
  w.Add("paranoid_checks", options_.paranoid_checks);
  event_logger_->Emit(&w);
}

Status DBImpl::SetupEncryption() {
  const EncryptionOptions& enc = options_.encryption;
  switch (enc.mode) {
    case EncryptionMode::kNone:
      files_ = NewPlainFileFactory(options_.env);
      return Status::OK();

    case EncryptionMode::kEncFS: {
      if (enc.instance_key.size() != crypto::CipherKeySize(enc.cipher)) {
        return Status::InvalidArgument(
            "EncFS requires an instance_key matching the cipher key size");
      }
      Status s = NewEncryptedEnv(options_.env, enc.cipher, enc.instance_key,
                                 &owned_encrypted_env_, enc.wal_buffer_size,
                                 enc.authenticate_blocks,
                                 options_.statistics.get());
      if (!s.ok()) {
        return s;
      }
      options_.env = owned_encrypted_env_.get();
      files_ = NewPlainFileFactory(options_.env);
      return Status::OK();
    }

    case EncryptionMode::kShield: {
      kds_ = enc.kds;
      if (kds_ == nullptr) {
        // Monolithic deployment without an external KDS.
        kds_ = std::make_shared<LocalKds>();
      }
      if (enc.use_secure_dek_cache) {
        Status s = SecureDekCache::Open(options_.env,
                                        DekCacheFileName(dbname_),
                                        enc.passkey, &secure_dek_cache_);
        if (!s.ok()) {
          return s;
        }
      }
      dek_manager_ = std::make_unique<DekManager>(kds_.get(), enc.server_id,
                                                  secure_dek_cache_.get(),
                                                  options_.statistics.get());
      if (event_logger_ != nullptr) {
        dek_manager_->SetEventLogger(event_logger_.get());
      }
      if (!read_only_) {
        // Reload DEK deletions deferred by an earlier incarnation
        // (KDS unreachable at ForgetDek time); rotation passes drain
        // them. Best effort: an unreadable queue file must not block
        // opening — those deletions are retried next time the file is
        // readable.
        (void)dek_manager_->ConfigurePendingDeletes(
            raw_env_, PendingDekDeletesFileName(dbname_));
      }
      if (enc.encryption_threads > 1) {
        encryption_pool_ =
            std::make_unique<ThreadPool>(enc.encryption_threads);
      }
      files_ = NewShieldFileFactory(options_.env, dek_manager_.get(), enc,
                                    encryption_pool_.get(),
                                    options_.statistics.get());
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown encryption mode");
}

Status DBImpl::NewDb() {
  VersionEdit new_db;
  new_db.SetComparatorName(internal_comparator_.user_comparator()->Name());
  new_db.SetLogNumber(0);
  new_db.SetNextFile(2);
  new_db.SetLastSequence(0);

  const std::string manifest = DescriptorFileName(dbname_, 1);
  std::unique_ptr<WritableFile> file;
  Status s = files_->NewWritableFile(manifest, FileKind::kManifest, &file);
  if (!s.ok()) {
    return s;
  }
  {
    log::Writer log(file.get());
    std::string record;
    new_db.EncodeTo(&record);
    s = log.AddRecord(record);
    if (s.ok()) {
      s = file->Sync();
    }
    if (s.ok()) {
      s = file->Close();
    }
  }
  if (s.ok()) {
    s = SetCurrentFile(options_.env, dbname_, 1);
  } else {
    files_->DeleteFile(manifest);
  }
  return s;
}

void DBImpl::RemoveObsoleteFiles() {
  // mutex_ held.
  if (!error_handler_.ok()) {
    // Uncertain state; do not GC.
    return;
  }

  std::set<uint64_t> live = pending_outputs_;
  versions_->AddLiveFiles(&live);
  const ManifestPosition position = versions_->manifest_position();

  std::vector<std::string> filenames;
  options_.env->GetChildren(dbname_, &filenames);  // ignore errors
  uint64_t number;
  DbFileType type;
  // Obsolete files in directory order. SSTs and WALs are `shared`: a
  // read-only instance's view may still reference them.
  struct ObsoleteFile {
    std::string name;
    uint64_t number;
    bool shared;
  };
  std::vector<ObsoleteFile> obsolete;
  std::vector<std::string> leases;
  const uint64_t now = NowMicros();
  std::map<std::string, uint64_t> lease_temps;
  for (const std::string& filename : filenames) {
    if (!ParseFileName(filename, &number, &type)) {
      continue;
    }
    bool keep = true;
    switch (type) {
      case DbFileType::kLogFile:
        keep = (number >= versions_->LogNumber());
        break;
      case DbFileType::kDescriptorFile:
        keep = (number >= versions_->ManifestFileNumber());
        break;
      case DbFileType::kTableFile:
        keep = (live.find(number) != live.end());
        break;
      case DbFileType::kTempFile:
        keep = (live.find(number) != live.end());
        break;
      case DbFileType::kLeaseFile:
        leases.push_back(filename);
        keep = true;
        break;
      case DbFileType::kLeaseTempFile: {
        // A lease being published, or one whose instance died before
        // the rename: garbage once it has been here too long.
        auto seen = lease_temps_seen_.find(filename);
        const uint64_t first_seen =
            seen != lease_temps_seen_.end() ? seen->second : now;
        keep = now - first_seen <= kFileLeaseTtlMicros;
        if (keep) {
          lease_temps.emplace(filename, first_seen);
        }
        break;
      }
      case DbFileType::kCurrentFile:
      case DbFileType::kDekCacheFile:
        keep = true;
        break;
    }
    if (!keep) {
      obsolete.push_back({filename, number,
                          type == DbFileType::kTableFile ||
                              type == DbFileType::kLogFile});
      if (type == DbFileType::kTableFile) {
        table_cache_->Evict(number);
      }
    }
  }

  // Each shared file carries the writer's manifest position from the
  // pass that first found it obsolete: the edit that dropped it lies at
  // or before that stamp, so a view pinned at or past the stamp no
  // longer references it.
  std::map<uint64_t, ManifestPosition> stamps;
  if (!leases.empty()) {
    for (const ObsoleteFile& f : obsolete) {
      if (f.shared) {
        auto it = obsolete_stamps_.find(f.number);
        stamps.emplace(f.number,
                       it != obsolete_stamps_.end() ? it->second : position);
      }
    }
  }
  obsolete_stamps_ = stamps;
  lease_temps_seen_.swap(lease_temps);

  // Delete outside the lock: file deletion under SHIELD talks to the
  // KDS (DEK destruction) and may block.
  mutex_.unlock();
  // The leases are read after the live set was taken: an instance
  // whose lease this pass misses read its manifest after every edit
  // that made these files obsolete.
  ManifestPosition oldest;
  const bool leased =
      !stamps.empty() &&
      OldestLeasedPosition(files_->env(), dbname_, leases, now, &oldest);
  std::vector<uint64_t> released;
  for (const ObsoleteFile& f : obsolete) {
    if (f.shared && leased && oldest < stamps[f.number]) {
      continue;  // a live lease pins a view that may reference it
    }
    files_->DeleteFile(dbname_ + "/" + f.name);
    if (f.shared) {
      released.push_back(f.number);
    }
  }
  mutex_.lock();
  for (uint64_t n : released) {
    obsolete_stamps_.erase(n);
  }
  if (!obsolete_stamps_.empty() &&
      !shutting_down_.load(std::memory_order_acquire)) {
    deferred_deletion_task_.Start(kDeferredDeletionRetryMicros,
                                  [this] { RetryDeferredDeletions(); });
  }
}

void DBImpl::RetryDeferredDeletions() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!obsolete_stamps_.empty() &&
      !shutting_down_.load(std::memory_order_acquire)) {
    RemoveObsoleteFiles();
  }
}

Status DBImpl::Recover() {
  std::unique_lock<std::mutex> lock(mutex_);

  Status s = options_.env->CreateDirIfMissing(dbname_);
  if (!s.ok()) {
    return s;
  }
  // Capture the physical view of the directory before SetupEncryption
  // may interpose the EncFS env: quarantine/repair move on-disk images
  // byte-for-byte.
  raw_env_ = options_.env;
  SetupInfoLog();
  error_handler_.Configure(options_.background_error_resume_policy,
                           options_.listeners, event_logger_.get());
  // Interpose the tracing env directly above the physical env, then the
  // counting env, then encryption: both observability layers see
  // ciphertext traffic (what actually hits storage), and the tracing
  // wrapper is a single relaxed atomic load when no trace is active.
  owned_tracing_env_ = NewIOTracingEnv(options_.env);
  options_.env = owned_tracing_env_.get();
  io_stats_.SetStatisticsSink(options_.statistics.get());
  owned_counting_env_ = NewCountingEnv(options_.env, &io_stats_);
  options_.env = owned_counting_env_.get();
  s = SetupEncryption();
  if (!s.ok()) {
    return s;
  }

  block_cache_ = options_.block_cache_size > 0
                     ? NewLRUCache(options_.block_cache_size)
                     : nullptr;
  table_cache_ = std::make_unique<TableCache>(
      dbname_, options_, &internal_comparator_, files_.get(), block_cache_,
      /*max_open_tables=*/1000);
  versions_ = std::make_unique<VersionSet>(dbname_, options_,
                                           &internal_comparator_,
                                           table_cache_.get(), files_.get());

  if (!options_.env->FileExists(CurrentFileName(dbname_))) {
    if (read_only_) {
      return Status::NotFound("database does not exist", dbname_);
    }
    if (options_.create_if_missing) {
      s = NewDb();
      if (!s.ok()) {
        return s;
      }
    } else {
      return Status::InvalidArgument(dbname_,
                                     "does not exist (create_if_missing=false)");
    }
  } else if (options_.error_if_exists && !read_only_) {
    return Status::InvalidArgument(dbname_, "exists (error_if_exists=true)");
  }

  if (read_only_) {
    // Pin every file before the manifest is read: the writer's GC
    // keeps whatever a lease at position {0, 0} could reference, so no
    // file of the view read below can go while it is built.
    while (lease_id_ == 0) {
      crypto::SecureRandomBytes(&lease_id_, sizeof(lease_id_));
    }
    s = PublishLease(ManifestPosition());
    if (!s.ok()) {
      return s;
    }
  }

  s = versions_->Recover();
  if (!s.ok()) {
    return s;
  }

  // Replay WALs newer than the manifest state.
  TraceSpan recover_span(SpanType::kRecovery, Slice(dbname_));
  SequenceNumber max_sequence = 0;
  if (read_only_) {
    mem_ = new MemTable(internal_comparator_);
    mem_->Ref();
    s = ReplayReplicaLogs(*versions_, mem_, &max_sequence);
    if (!s.ok()) {
      return s;
    }
    if (versions_->LastSequence() < max_sequence) {
      versions_->SetLastSequence(max_sequence);
    }
    RecordCatchupApplied();
    // Narrow the lease to the view just installed. If the write fails
    // the lease at {0, 0} stays in force, which keeps more, not less.
    (void)PublishLease(versions_->manifest_position());
    SetupHealthPlane();
    return Status::OK();
  }

  std::vector<uint64_t> logs;
  s = ListLogFiles(versions_->LogNumber(), &logs);
  if (!s.ok()) {
    return s;
  }

  VersionEdit edit;
  for (uint64_t log_number : logs) {
    s = RecoverLogFile(log_number, /*replica_mem=*/nullptr, &max_sequence,
                       &edit);
    if (!s.ok()) {
      if (!options_.paranoid_checks &&
          (s.IsCorruption() || s.IsNotFound())) {
        // Damage that crash semantics can explain: a WAL torn below
        // its header (SHIELD files need 64 durable bytes before any
        // record), or removed after its contents were flushed. Every
        // record replayed before the damage is kept; only unsynced —
        // hence unacknowledged — data can be missing. Salvage and
        // continue.
        recovery_salvaged_logs_.fetch_add(1, std::memory_order_relaxed);
        if (event_logger_ != nullptr && event_logger_->enabled()) {
          JsonWriter w = event_logger_->NewEvent("wal_salvage");
          w.Add("log_number", log_number);
          w.Add("error", s.ToString());
          event_logger_->Emit(&w);
        }
        s = Status::OK();
      } else {
        return s;
      }
    }
    versions_->MarkFileNumberUsed(log_number);
  }

  if (versions_->LastSequence() < max_sequence) {
    versions_->SetLastSequence(max_sequence);
  }

  // Start a fresh WAL and persist the recovery edit.
  const uint64_t new_log_number = versions_->NewFileNumber();
  std::unique_ptr<WritableFile> lfile;
  s = files_->NewWritableFile(LogFileName(dbname_, new_log_number),
                              FileKind::kWal, &lfile);
  if (!s.ok()) {
    return s;
  }
  logfile_ = std::move(lfile);
  logfile_number_ = new_log_number;
  log_ = std::make_unique<log::Writer>(
      logfile_.get(), 0, options_.encryption.wal_padding_buckets,
      options_.statistics.get());
  edit.SetLogNumber(new_log_number);

  s = versions_->LogAndApply(&edit, &mutex_);
  if (!s.ok()) {
    return s;
  }

  if (mem_ == nullptr) {
    mem_ = new MemTable(internal_comparator_);
    mem_->Ref();
  }

  bg_pool_ = std::make_unique<ThreadPool>(
      static_cast<size_t>(options_.max_background_jobs));

  RemoveObsoleteFiles();
  MaybeScheduleCompaction();

  scrub_task_.Start(options_.scrub_interval_micros,
                    [this] { BackgroundScrub(); });

  if (options_.encryption.mode == EncryptionMode::kShield) {
    // A ROTATION manifest on disk means a rotation was interrupted;
    // the rotation task finishes it before anything else, even when
    // no periodic rotation is configured (one-shot resume).
    rotation_pending_at_open_ = ResumePendingRotation();
    rotation_task_.Start(options_.dek_rotation_interval_micros,
                         [this] { BackgroundRotation(); },
                         /*run_now=*/rotation_pending_at_open_);
  }
  SetupHealthPlane();
  return Status::OK();
}

Status DB::Open(const Options& options, const std::string& name, DB** dbptr) {
  *dbptr = nullptr;
  auto impl = std::make_unique<DBImpl>(options, name, /*read_only=*/false);
  Status s = impl->Recover();
  if (!s.ok()) {
    return s;
  }
  DBImpl* writer = impl.get();
  impl->lease_listener_ = AddLeaseReleaseListener(
      name, [writer] { writer->RetryDeferredDeletions(); });
  *dbptr = impl.release();
  return Status::OK();
}

Status DB::OpenReadOnly(const Options& options, const std::string& name,
                        DB** dbptr) {
  *dbptr = nullptr;
  auto impl = std::make_unique<DBImpl>(options, name, /*read_only=*/true);
  Status s = impl->Recover();
  if (!s.ok()) {
    return s;
  }
  // Open narrowed the lease from {0, 0} to the installed view.
  NotifyLeaseReleased(name);
  *dbptr = impl.release();
  return Status::OK();
}

const Snapshot* DBImpl::GetSnapshot() {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshots_.New(versions_->LastSequence());
}

void DBImpl::ReleaseSnapshot(const Snapshot* snapshot) {
  std::lock_guard<std::mutex> lock(mutex_);
  snapshots_.Delete(static_cast<const SnapshotImpl*>(snapshot));
}

void DBImpl::WaitForIdle() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    if (!error_handler_.ok() ||
        shutting_down_.load(std::memory_order_acquire)) {
      return;
    }
    if (imm_ != nullptr || flush_scheduled_ || compaction_scheduled_) {
      background_work_finished_signal_.wait(lock);
      continue;
    }
    if (versions_ != nullptr && versions_->NeedsCompaction() &&
        !manual_compaction_running_ && bg_pool_ != nullptr) {
      MaybeScheduleCompaction();
      if (!compaction_scheduled_) {
        return;  // could not schedule (shutdown)
      }
      continue;
    }
    return;
  }
}

Status DBImpl::GetLiveSstFiles(std::vector<std::string>* paths) {
  paths->clear();
  std::vector<Version::LiveFileInfo> files;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    versions_->current()->GetAllFiles(&files);
  }
  std::sort(files.begin(), files.end(),
            [](const Version::LiveFileInfo& a, const Version::LiveFileInfo& b) {
              return a.number < b.number;
            });
  for (const auto& f : files) {
    paths->push_back(TableFileName(dbname_, f.number));
  }
  return Status::OK();
}

bool DBImpl::GetProperty(const Slice& property, std::string* value) {
  value->clear();
  Slice in = property;
  const Slice prefix("shield.");
  if (!in.starts_with(prefix)) {
    return false;
  }
  in.remove_prefix(prefix.size());

  // Properties that must not (or need not) hold mutex_: the health
  // JSON reads monitor state only, and the catch-up probes touch the
  // shared namespace + atomics — both may be polled by detectors or
  // monitors while the DB mutex is busy.
  if (in == Slice("health")) {
    *value = health_monitor_.ToJson();
    return true;
  }
  if (in == Slice("replica.catchup-lag-bytes")) {
    uint64_t lag_bytes = 0, lag_generations = 0;
    (void)ComputeCatchupLag(&lag_bytes, &lag_generations);
    *value = std::to_string(lag_bytes);
    return true;
  }
  if (in == Slice("replica.catchup-lag-generations")) {
    uint64_t lag_bytes = 0, lag_generations = 0;
    (void)ComputeCatchupLag(&lag_bytes, &lag_generations);
    *value = std::to_string(lag_generations);
    return true;
  }

  // Only the level table needs mutex_; every Get takes it too, so the
  // Statistics and IoStats text (atomics and their own locks) renders
  // after it is released.
  if (in == Slice("stats")) {
    char buf[256];
    snprintf(buf, sizeof(buf),
             "level  files  size(MB)  time(s)  read(MB)  write(MB)\n"
             "-----------------------------------------------------\n");
    value->append(buf);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (int level = 0; level < versions_->num_levels(); level++) {
        const int files = versions_->NumLevelFiles(level);
        if (stats_[level].micros > 0 || files > 0) {
          snprintf(buf, sizeof(buf), "%3d %8d %8.1f %8.1f %9.1f %9.1f\n",
                   level, files, versions_->NumLevelBytes(level) / 1048576.0,
                   stats_[level].micros / 1e6,
                   stats_[level].bytes_read / 1048576.0,
                   stats_[level].bytes_written / 1048576.0);
          value->append(buf);
        }
      }
    }
    value->append("io: ");
    value->append(io_stats_.ToString());
    value->append("\n");
    if (options_.statistics != nullptr) {
      value->append(options_.statistics->ToString());
    }
    return true;
  }
  if (in == Slice("metrics")) {
    if (options_.statistics == nullptr) {
      return false;
    }
    // The Statistics families under this DB's node label, then this
    // DB's own gauges; the two share no family name.
    *value = options_.statistics->ToPrometheusText(options_.node_name);
    AppendMetricsGauges(value);
    return true;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (in.starts_with("num-files-at-level")) {
    in.remove_prefix(strlen("num-files-at-level"));
    const int level = atoi(in.ToString().c_str());
    if (level < 0 || level >= versions_->num_levels()) {
      return false;
    }
    *value = std::to_string(versions_->NumLevelFiles(level));
    return true;
  }
  if (in == Slice("io-stats")) {
    *value = io_stats_.ToString();
    return true;
  }
  if (in == Slice("sstables")) {
    *value = versions_->current()->DebugString();
    return true;
  }
  if (in == Slice("kds-requests")) {
    *value = std::to_string(dek_manager_ ? dek_manager_->kds_requests() : 0);
    return true;
  }
  if (in == Slice("dek-cache-hits")) {
    *value = std::to_string(dek_manager_ ? dek_manager_->cache_hits() : 0);
    return true;
  }
  if (in == Slice("approximate-memtable-bytes")) {
    size_t total = mem_ != nullptr ? mem_->ApproximateMemoryUsage() : 0;
    if (imm_ != nullptr) {
      total += imm_->ApproximateMemoryUsage();
    }
    *value = std::to_string(total);
    return true;
  }
  if (in == Slice("last-sequence")) {
    // Regression surface for the write path: a failed group write must
    // not advance this (sequence gaps would stand for batches that
    // never landed).
    *value = std::to_string(versions_->LastSequence());
    return true;
  }
  if (in == Slice("stall-micros")) {
    *value = std::to_string(stall_micros_.load(std::memory_order_relaxed));
    return true;
  }
  if (in == Slice("offload-fallbacks")) {
    *value =
        std::to_string(offload_fallbacks_.load(std::memory_order_relaxed));
    return true;
  }
  if (in == Slice("recovery-salvaged-logs")) {
    *value = std::to_string(
        recovery_salvaged_logs_.load(std::memory_order_relaxed));
    return true;
  }
  if (in == Slice("error-handler-state")) {
    *value = DbErrorStateName(error_handler_.state());
    return true;
  }
  if (in == Slice("background-error")) {
    *value = error_handler_.bg_error().ToString();
    return true;
  }
  if (in == Slice("error-recoveries")) {
    *value = std::to_string(error_handler_.recoveries());
    return true;
  }
  if (in == Slice("scrub-corruptions-detected")) {
    *value = std::to_string(
        scrub_corruptions_detected_.load(std::memory_order_relaxed));
    return true;
  }
  if (in == Slice("scrub-repaired-files")) {
    *value =
        std::to_string(scrub_repaired_files_.load(std::memory_order_relaxed));
    return true;
  }
  if (in == Slice("scrub-quarantined-files")) {
    *value = std::to_string(
        scrub_quarantined_files_.load(std::memory_order_relaxed));
    return true;
  }
  if (in == Slice("rotation-state")) {
    if (rotation_running_.load(std::memory_order_acquire)) {
      *value = "running";
    } else {
      const uint64_t pending =
          rotation_pending_files_.load(std::memory_order_relaxed);
      *value = pending > 0 ? "pending:" + std::to_string(pending) : "idle";
    }
    return true;
  }
  if (in == Slice("rotation-files-rotated")) {
    *value = std::to_string(
        rotation_files_rotated_.load(std::memory_order_relaxed));
    return true;
  }
  if (in == Slice("dek.pending-deletes")) {
    *value = std::to_string(
        dek_manager_ != nullptr ? dek_manager_->pending_deletes() : 0);
    return true;
  }
  if (in == Slice("levelstats")) {
    // One row per level: "level files bytes" (machine-friendly; the
    // human table lives under "shield.stats").
    char buf[64];
    value->append("level files bytes\n");
    for (int level = 0; level < versions_->num_levels(); level++) {
      snprintf(buf, sizeof(buf), "%d %d %lld\n", level,
               versions_->NumLevelFiles(level),
               static_cast<long long>(versions_->NumLevelBytes(level)));
      value->append(buf);
    }
    return true;
  }
  if (in == Slice("crypto-dispatch")) {
    *value = crypto::CryptoDispatch();
    return true;
  }
  if (in == Slice("dek-cache-stats")) {
    char buf[160];
    snprintf(buf, sizeof(buf),
             "hits=%llu misses=%llu evictions=%llu entries=%llu",
             static_cast<unsigned long long>(
                 dek_manager_ ? dek_manager_->cache_hits() : 0),
             static_cast<unsigned long long>(
                 dek_manager_ ? dek_manager_->cache_misses() : 0),
             static_cast<unsigned long long>(
                 dek_manager_ ? dek_manager_->evictions() : 0),
             static_cast<unsigned long long>(
                 dek_manager_ ? dek_manager_->entries() : 0));
    *value = buf;
    return true;
  }
  return false;
}

Status DBImpl::Resume() {
  std::lock_guard<std::mutex> lock(mutex_);
  Status s = error_handler_.Resume();
  if (s.ok()) {
    // Pending work may have accumulated while writes were stopped.
    MaybeScheduleFlush();
    MaybeScheduleCompaction();
    background_work_finished_signal_.notify_all();
  }
  return s;
}

Status DBImpl::StartTrace(const TraceOptions& trace_options,
                          const std::string& trace_path) {
  std::lock_guard<std::mutex> lock(trace_mutex_);
  if (tracer_.active()) {
    return Status::Busy("this DB already has an active trace");
  }
  TraceOptions opts = trace_options;
  if (opts.node_name.empty()) {
    opts.node_name = options_.node_name;
  }
  // The trace is written through the physical env: plaintext on
  // purpose (span labels are file names, never keys or user data), and
  // replayable against a raw directory. TraceOptions::trace_env
  // overrides the destination (the simulator points it at a zero-cost
  // backing store so tracing never perturbs virtual time).
  Env* trace_env = opts.trace_env != nullptr ? opts.trace_env : raw_env_;
  Status s = tracer_.Start(trace_env, trace_path, opts,
                           options_.statistics.get());
  if (s.ok() && event_logger_ != nullptr && event_logger_->enabled()) {
    JsonWriter w = event_logger_->NewEvent("trace_start");
    w.Add("path", trace_path);
    event_logger_->Emit(&w);
  }
  return s;
}

Status DBImpl::EndTrace() {
  std::lock_guard<std::mutex> lock(trace_mutex_);
  if (!tracer_.active()) {
    return Status::InvalidArgument("no active trace on this DB");
  }
  Status s = tracer_.Stop();
  RecordTick(options_.statistics.get(), Tickers::kIoTraceDropped,
             tracer_.spans_dropped());
  if (event_logger_ != nullptr && event_logger_->enabled()) {
    JsonWriter w = event_logger_->NewEvent("trace_end");
    w.Add("spans_recorded", tracer_.spans_recorded());
    w.Add("spans_dropped", tracer_.spans_dropped());
    w.Add("status", s.ToString());
    event_logger_->Emit(&w);
  }
  return s;
}

Status DestroyDB(const Options& options, const std::string& name) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  std::vector<std::string> filenames;
  Status s = env->GetChildren(name, &filenames);
  if (!s.ok()) {
    return Status::OK();  // nothing to destroy
  }
  for (const std::string& filename : filenames) {
    env->RemoveFile(name + "/" + filename);
  }
  env->RemoveDir(name);
  return Status::OK();
}

}  // namespace shield
