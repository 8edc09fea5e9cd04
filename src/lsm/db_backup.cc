// Encrypted backup and restore. A backup is a signed bundle
// (lsm/bundle.h): a directory holding the physical (encrypted) images
// of the current version's SSTs, the version MANIFEST, CURRENT and the
// live WAL, plus a BACKUP_MANIFEST that records an HMAC-SHA256 tag per
// file and is itself MAC'd under the backup key — a tampered or
// truncated backup is detected before a single byte lands in the
// restore target.
//
// Under SHIELD the files stay encrypted at rest in the backup, but
// every embedded DEK id is re-wrapped (Kds::RewrapDek) for the
// restore target's server identity and patched into the plaintext
// file header. Re-wrapping mints a new id over the SAME key material,
// so ciphertext and per-block authentication tags (keyed from DEK key
// and nonce, not the id) are byte-for-byte unchanged — which is what
// lets a backup restore on a fresh server even after the source
// identity's keys are revoked. The source's secure DEK cache is
// deliberately NOT backed up: it is bound to the source passkey, and
// the restore target rebuilds its own from the KDS.
//
// Consistency: CreateBackup pins the current version (its SSTs cannot
// be GC'd) and pauses manifest appends for the copy, so the MANIFEST
// image ends at a record boundary that exactly describes the pinned
// version. The WAL is copied live; a torn tail record is dropped by
// normal WAL recovery, so the backup captures at least everything
// acknowledged before the call (everything, when flush_before_backup
// emptied the memtable).

#include "lsm/bundle.h"
#include "lsm/db_impl.h"
#include "lsm/file_names.h"
#include "util/trace.h"

namespace shield {

Status DBImpl::CreateBackup(const std::string& backup_dir,
                            const BackupOptions& backup_options) {
  if (read_only_) {
    return Status::NotSupported(
        "backups are created from the primary instance");
  }
  ScopedTracerBinding trace_binding(&tracer_);
  TraceSpan span(SpanType::kBackup);
  if (!backup_options.target_server_id.empty() &&
      options_.encryption.mode != EncryptionMode::kShield) {
    return Status::InvalidArgument(
        "target_server_id requires SHIELD encryption");
  }

  Status s = raw_env_->CreateDirIfMissing(backup_dir);
  if (!s.ok()) {
    return s;
  }
  if (raw_env_->FileExists(BundleManifestPath(kBackupBundle, backup_dir))) {
    return Status::InvalidArgument("backup_dir already contains a backup",
                                   backup_dir);
  }

  if (backup_options.flush_before_backup) {
    s = Flush();
    if (!s.ok()) {
      return s;
    }
  }

  // Freeze the consistency point: pin the current version and pause
  // manifest appends, so the descriptor log on disk exactly describes
  // the pinned version for the whole copy.
  Version* version = nullptr;
  std::vector<Version::LiveFileInfo> live_files;
  uint64_t wal_number = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!error_handler_.reads_allowed()) {
      return error_handler_.bg_error();
    }
    versions_->PauseManifestAppends(&mutex_);
    version = versions_->current();
    version->Ref();
    version->GetAllFiles(&live_files);
    wal_number = logfile_number_;
  }

  if (event_logger_ != nullptr) {
    JsonWriter w = event_logger_->NewEvent("backup_begin");
    w.Add("path", backup_dir);
    w.Add("ssts", static_cast<uint64_t>(live_files.size()));
    w.Add("target",
          backup_options.target_server_id.empty()
              ? Slice("-")
              : Slice(backup_options.target_server_id));
    event_logger_->Emit(&w);
  }

  // Source paths, all copied as physical (already encrypted) bytes.
  std::vector<std::string> sources;
  for (const auto& f : live_files) {
    sources.push_back(TableFileName(dbname_, f.number));
  }
  std::string current_contents;
  s = ReadFileToString(raw_env_, CurrentFileName(dbname_), &current_contents);
  if (s.ok()) {
    std::string manifest_base = current_contents;
    while (!manifest_base.empty() && (manifest_base.back() == '\n' ||
                                      manifest_base.back() == '\r')) {
      manifest_base.pop_back();
    }
    if (manifest_base.empty()) {
      s = Status::Corruption("CURRENT file is empty");
    } else {
      sources.push_back(dbname_ + "/" + manifest_base);
      // CURRENT itself, so the restored directory opens without any
      // reconstruction step.
      sources.push_back(CurrentFileName(dbname_));
    }
  }
  if (s.ok() && wal_number != 0 &&
      raw_env_->FileExists(LogFileName(dbname_, wal_number))) {
    sources.push_back(LogFileName(dbname_, wal_number));
  }

  std::vector<BundleFileEntry> entries;
  uint64_t total_bytes = 0;
  for (const auto& src : sources) {
    if (!s.ok()) {
      break;
    }
    std::string contents;
    s = ReadFileToString(raw_env_, src, &contents);
    if (!s.ok()) {
      break;
    }
    BundleFileEntry entry;
    entry.name = src.substr(src.rfind('/') + 1);
    // Files stay encrypted; with a target identity their DEKs are
    // re-wrapped for it.
    s = SealBundleFile(dek_manager_.get(), backup_options.target_server_id,
                       backup_options.hmac_key, &contents, &entry);
    if (!s.ok()) {
      break;
    }
    s = WriteStringToFile(raw_env_, contents, backup_dir + "/" + entry.name,
                          /*sync=*/true);
    if (!s.ok()) {
      break;
    }
    total_bytes += contents.size();
    RecordTick(options_.statistics.get(), Tickers::kShieldBackupFiles, 1);
    RecordTick(options_.statistics.get(), Tickers::kShieldBackupBytes,
               contents.size());
    entries.push_back(std::move(entry));
  }

  if (s.ok()) {
    // The backup manifest is the commit point: a directory without one
    // (interrupted backup) never verifies, so it can never be restored.
    s = WriteStringToFile(
        raw_env_,
        EncodeBundleManifest(kBackupBundle, backup_options.target_server_id,
                             entries, backup_options.hmac_key),
        BundleManifestPath(kBackupBundle, backup_dir), /*sync=*/true);
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    versions_->ResumeManifestAppends();
    version->Unref();
  }

  if (event_logger_ != nullptr) {
    JsonWriter w = event_logger_->NewEvent("backup_end");
    w.Add("path", backup_dir);
    w.Add("files", static_cast<uint64_t>(entries.size()));
    w.Add("bytes", total_bytes);
    w.Add("ok", s.ok());
    if (!s.ok()) {
      w.Add("error", s.ToString());
    }
    event_logger_->Emit(&w);
  }
  span.MarkStatus(s);
  return s;
}

Status DB::VerifyBackup(const Options& options, const std::string& backup_dir,
                        const RestoreOptions& restore_options) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  std::vector<BundleFileEntry> entries;
  return LoadAndVerifyBundle(kBackupBundle, env, backup_dir,
                             restore_options.hmac_key, &entries,
                             /*images=*/nullptr);
}

Status DB::RestoreBackup(const Options& options,
                         const std::string& backup_dir,
                         const std::string& dbname,
                         const RestoreOptions& restore_options) {
  Env* env = options.env != nullptr ? options.env : Env::Default();

  if (env->FileExists(CurrentFileName(dbname))) {
    return Status::InvalidArgument("restore target already contains a DB",
                                   dbname);
  }

  // Verify everything BEFORE writing anything: a bad backup leaves the
  // target directory untouched.
  std::vector<BundleFileEntry> entries;
  std::vector<std::string> images;
  Status s = LoadAndVerifyBundle(kBackupBundle, env, backup_dir,
                                 restore_options.hmac_key, &entries, &images);
  if (!s.ok()) {
    return s;
  }

  s = env->CreateDirIfMissing(dbname);
  for (size_t i = 0; s.ok() && i < entries.size(); i++) {
    s = WriteStringToFile(env, images[i], dbname + "/" + entries[i].name,
                          /*sync=*/true);
  }
  return s;
}

}  // namespace shield
