// Online DEK rotation: rewrites live SSTs to fresh DEKs through the
// table-rewrite path, with progress persisted in the ROTATION manifest
// after every file so a crash mid-rotation resumes instead of
// restarting. The old file's DEK is destroyed by garbage collection
// only after its replacement is durable in the version MANIFEST *and*
// the step is recorded in the rotation manifest, so no key is ever
// lost to a crash. Extends the paper's passive rotation-via-compaction
// (Section 5.2) into an on-demand / scheduled key-lifecycle job.

#include <algorithm>

#include "lsm/db_impl.h"
#include "lsm/file_names.h"
#include "lsm/sst_builder.h"
#include "lsm/sst_reader.h"
#include "util/clock.h"
#include "util/trace.h"

namespace shield {

Status DBImpl::RotateDeks(const RotateOptions& rotate_options,
                          RotateResult* result) {
  return Rotate(rotate_options, result, /*background=*/false);
}

Status DBImpl::Rotate(const RotateOptions& rotate_options,
                      RotateResult* result, bool background) {
  RotateResult scratch;
  if (result == nullptr) {
    result = &scratch;
  }
  *result = RotateResult();
  if (read_only_) {
    return Status::NotSupported("read-only instances cannot rotate DEKs");
  }
  if (options_.encryption.mode != EncryptionMode::kShield) {
    return Status::NotSupported("DEK rotation requires SHIELD encryption");
  }

  // Serialize with the background rotation task.
  std::lock_guard<std::mutex> pass_lock(rotation_pass_mutex_);

  RotationManifest manifest;
  bool resumed = true;
  Status s = RotationManifest::Load(raw_env_, dbname_, &manifest);
  if (s.IsCorruption() ||
      (s.ok() && manifest.state == RotationManifest::State::kDone)) {
    // A torn manifest (crash mid-save) or a completed rotation whose
    // cleanup crashed. Rotation is idempotent — entries for files no
    // longer in the live version are skipped as stale — so the safe
    // recovery is to drop it and plan afresh.
    RotationManifest::Remove(raw_env_, dbname_);
    s = Status::NotFound("restarting rotation");
  }
  if (s.IsNotFound()) {
    resumed = false;
    manifest = RotationManifest();
    std::vector<Version::LiveFileInfo> files;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_handler_.ok()) {
        return error_handler_.bg_error();
      }
      manifest.rotation_id = versions_->NewFileNumber();
      versions_->current()->GetAllFiles(&files);
    }
    for (const auto& f : files) {
      if (rotate_options.max_dek_age_micros > 0) {
        // Only rotate files whose DEK is old enough. Unknown ages
        // (DekAgeMicros returns UINT64_MAX — the DEK predates this
        // process) are at least as old as the process and eligible.
        ShieldFileHeader header;
        Status hs = ReadShieldFileHeader(
            raw_env_, TableFileName(dbname_, f.number), &header);
        if (hs.ok() && dek_manager_->DekAgeMicros(header.dek_id) <
                           rotate_options.max_dek_age_micros) {
          continue;
        }
      }
      manifest.pending.push_back(f.number);
    }
    if (!manifest.pending.empty()) {
      s = manifest.Save(raw_env_, dbname_);
      if (!s.ok()) {
        return s;
      }
    }
  } else if (!s.ok()) {
    return s;
  }

  Status rs;
  if (!manifest.pending.empty()) {
    if (event_logger_ != nullptr && event_logger_->enabled()) {
      JsonWriter w = event_logger_->NewEvent("rotation_begin");
      w.Add("rotation_id", manifest.rotation_id);
      w.Add("planned", static_cast<uint64_t>(manifest.pending.size()));
      w.Add("resumed", resumed);
      event_logger_->Emit(&w);
    }
    rs = RunRotation(&manifest, rotate_options, result, background);
  }
  // Opportunistic drain of deferred KDS deletes — even when there was
  // nothing to rotate, so operators can force a drain with a no-op
  // RotateDeks call.
  dek_manager_->TryDrainPendingDeletes();
  return rs;
}

Status DBImpl::RunRotation(RotationManifest* manifest,
                           const RotateOptions& opts, RotateResult* result,
                           bool background) {
  ScopedTracerBinding trace_binding(&tracer_);
  TraceSpan span(SpanType::kRotationPass);
  rotation_running_.store(true, std::memory_order_release);
  rotation_passes_.fetch_add(1, std::memory_order_relaxed);
  Statistics* stats = options_.statistics.get();
  RecordTick(stats, Tickers::kShieldRotationPasses, 1);

  const uint64_t bps = opts.bytes_per_second != 0
                           ? opts.bytes_per_second
                           : options_.rotation_bytes_per_second;
  Status failure;
  uint64_t rotated_this_pass = 0;
  while (!manifest->pending.empty()) {
    if (shutting_down_.load(std::memory_order_acquire) ||
        rotation_task_.stopping()) {
      failure = Status::IOError("shutting down");
      break;
    }
    if (opts.max_files > 0 && rotated_this_pass >= opts.max_files) {
      break;
    }
    const uint64_t number = manifest->pending.front();
    uint64_t bytes = 0;
    bool skipped = false;
    Status s = RotateFile(number, &bytes, &skipped);
    if (!s.ok()) {
      failure = s;
      std::lock_guard<std::mutex> lock(mutex_);
      if (!s.IsTransient() && error_handler_.ok() &&
          !shutting_down_.load(std::memory_order_acquire)) {
        error_handler_.OnBackgroundError(BackgroundErrorReason::kRotation, s);
      }
      break;
    }
    // The replacement (if any) is durable in the version MANIFEST.
    // Record the step in the rotation manifest BEFORE garbage
    // collection destroys the old file's DEK, so a crash between the
    // two re-skips a finished file instead of re-rotating it, and
    // never forgets a key a pending file still needs.
    manifest->pending.erase(manifest->pending.begin());
    if (skipped) {
      result->files_skipped++;
      RecordTick(stats, Tickers::kShieldRotationSkippedStale, 1);
    } else {
      manifest->done.push_back(number);
      rotated_this_pass++;
      result->files_rotated++;
      result->bytes_rotated += bytes;
      rotation_files_rotated_.fetch_add(1, std::memory_order_relaxed);
      RecordTick(stats, Tickers::kShieldRotationFilesRewritten, 1);
      RecordTick(stats, Tickers::kShieldRotationBytesRewritten, bytes);
    }
    Status ps = manifest->Save(raw_env_, dbname_);
    if (!ps.ok()) {
      failure = ps;
      std::lock_guard<std::mutex> lock(mutex_);
      if (!ps.IsTransient() && error_handler_.ok() &&
          !shutting_down_.load(std::memory_order_acquire)) {
        error_handler_.OnBackgroundError(BackgroundErrorReason::kRotation,
                                         ps);
      }
      break;
    }
    if (!skipped) {
      // The old file is unreferenced and its rotation step is durable:
      // GC deletes it and destroys its DEK (ForgetDek).
      std::lock_guard<std::mutex> lock(mutex_);
      RemoveObsoleteFiles();
    }
    if (event_logger_ != nullptr && event_logger_->enabled()) {
      JsonWriter w = event_logger_->NewEvent("rotation_file");
      w.Add("rotation_id", manifest->rotation_id);
      w.Add("file_number", number);
      w.Add("bytes", bytes);
      w.Add("skipped", skipped);
      event_logger_->Emit(&w);
    }
    if (bps > 0 && bytes > 0) {
      const uint64_t pace_micros = bytes * 1000000 / bps;
      if (background) {
        rotation_task_.Pace(pace_micros);
      } else {
        SleepForMicros(pace_micros);
      }
    }
  }

  result->files_pending = manifest->pending.size();
  rotation_pending_files_.store(manifest->pending.size(),
                                std::memory_order_relaxed);
  if (failure.ok() && manifest->pending.empty()) {
    manifest->state = RotationManifest::State::kDone;
    RotationManifest::Remove(raw_env_, dbname_);
  }
  if (event_logger_ != nullptr && event_logger_->enabled()) {
    JsonWriter w = event_logger_->NewEvent("rotation_end");
    w.Add("rotation_id", manifest->rotation_id);
    w.Add("rotated", result->files_rotated);
    w.Add("skipped_stale", result->files_skipped);
    w.Add("pending", result->files_pending);
    w.Add("ok", failure.ok());
    if (!failure.ok()) {
      w.Add("error", failure.ToString());
    }
    event_logger_->Emit(&w);
  }
  span.MarkStatus(failure);
  rotation_running_.store(false, std::memory_order_release);
  return failure;
}

Status DBImpl::RotateFile(uint64_t number, uint64_t* bytes, bool* skipped) {
  *bytes = 0;
  *skipped = false;

  int level = -1;
  uint64_t file_size = 0;
  uint64_t new_number = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Exclude compactions: the rewrite swaps version state at this
    // level, and a concurrent compaction could be merging the very
    // file being replaced.
    background_work_finished_signal_.wait(lock, [this] {
      return (!compaction_scheduled_ && !manual_compaction_running_) ||
             shutting_down_.load(std::memory_order_acquire);
    });
    if (shutting_down_.load(std::memory_order_acquire)) {
      return Status::IOError("shutting down");
    }
    if (!error_handler_.ok()) {
      return error_handler_.bg_error();
    }
    std::vector<Version::LiveFileInfo> files;
    versions_->current()->GetAllFiles(&files);
    for (const auto& f : files) {
      if (f.number == number) {
        level = f.level;
        file_size = f.file_size;
        break;
      }
    }
    if (level < 0) {
      // Stale manifest entry: the file was compacted away (its DEK
      // died with it) since the plan was persisted. Nothing to do.
      *skipped = true;
      return Status::OK();
    }
    manual_compaction_running_ = true;  // keeps compactions out
    new_number = versions_->NewFileNumber();
    pending_outputs_.insert(new_number);
  }

  // Copy every entry into a fresh SST through the normal table-build
  // path; the SHIELD file factory gives the output a brand-new DEK.
  // Unlike scrub salvage, rotation runs on healthy files: any read
  // error aborts the rewrite and the old file stays live.
  const std::string fname = TableFileName(dbname_, number);
  Status s;
  InternalKey smallest, largest;
  SequenceNumber largest_seq = 0;
  uint64_t entries = 0;
  uint64_t new_size = 0;
  uint64_t new_tail_size = 0;
  {
    std::unique_ptr<RandomAccessFile> file;
    s = files_->NewRandomAccessFile(fname, &file);
    std::unique_ptr<Table> table;
    if (s.ok()) {
      s = Table::Open(options_, &internal_comparator_, fname, std::move(file),
                      file_size, /*tail_size=*/0, /*block_cache=*/{},
                      &table);
    }
    std::unique_ptr<WritableFile> outfile;
    if (s.ok()) {
      s = files_->NewWritableFile(TableFileName(dbname_, new_number),
                                  FileKind::kSst, &outfile);
    }
    if (s.ok()) {
      auto builder = std::make_unique<TableBuilder>(
          options_, &internal_comparator_, outfile.get());
      ReadOptions read_options;
      read_options.fill_cache = false;
      std::unique_ptr<Iterator> iter(table->NewIterator(read_options));
      bool first = true;
      for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
        const Slice key = iter->key();
        if (first) {
          smallest.DecodeFrom(key);
          first = false;
        }
        largest.DecodeFrom(key);
        largest_seq = std::max(largest_seq, ExtractSequence(key));
        builder->Add(key, iter->value());
        entries++;
      }
      s = iter->status();
      if (s.ok()) {
        s = builder->Finish();
      } else {
        builder->Abandon();
      }
      new_size = builder->FileSize();
      new_tail_size = builder->TailSize();
      builder.reset();
      if (s.ok()) {
        s = outfile->Sync();
      }
      if (s.ok()) {
        s = outfile->Close();
      }
    }
  }

  std::unique_lock<std::mutex> lock(mutex_);
  if (s.ok()) {
    // Swap the rewritten file in at the same level. Level-0 recency is
    // keyed on largest_seq, which the copy preserves, so ordering
    // semantics survive the renumbering.
    VersionEdit edit;
    edit.RemoveFile(level, number);
    if (entries > 0) {
      edit.AddFile(level, new_number, new_size, smallest, largest,
                   largest_seq, new_tail_size);
    }
    s = versions_->LogAndApply(&edit, &mutex_);
    if (!s.ok() && !s.IsTransient() &&
        !shutting_down_.load(std::memory_order_acquire)) {
      // Same hazard as any manifest failure: the version log may be
      // torn, so it halts the DB through the same path.
      error_handler_.OnBackgroundError(BackgroundErrorReason::kManifestWrite,
                                       s);
    }
  }
  pending_outputs_.erase(new_number);
  if (s.ok()) {
    table_cache_->Evict(number);
    *bytes = file_size;
  }
  manual_compaction_running_ = false;
  MaybeScheduleCompaction();
  background_work_finished_signal_.notify_all();
  return s;
}

bool DBImpl::ResumePendingRotation() {
  RotationManifest manifest;
  Status s = RotationManifest::Load(raw_env_, dbname_, &manifest);
  if (s.ok() && manifest.state == RotationManifest::State::kRunning &&
      !manifest.pending.empty()) {
    rotation_pending_files_.store(manifest.pending.size(),
                                  std::memory_order_relaxed);
    return true;
  }
  return false;
}

void DBImpl::BackgroundRotation() {
  if (rotation_pending_at_open_) {
    // Finish the rotation a crash interrupted before anything else.
    // Resume strictly from the persisted plan — never plan new work
    // here, so an interval-less one-shot resume touches exactly the
    // files the crashed rotation still owed.
    rotation_pending_at_open_ = false;
    std::lock_guard<std::mutex> pass_lock(rotation_pass_mutex_);
    RotationManifest manifest;
    Status s = RotationManifest::Load(raw_env_, dbname_, &manifest);
    if (s.ok() && manifest.state == RotationManifest::State::kRunning &&
        !manifest.pending.empty()) {
      if (event_logger_ != nullptr && event_logger_->enabled()) {
        JsonWriter w = event_logger_->NewEvent("rotation_begin");
        w.Add("rotation_id", manifest.rotation_id);
        w.Add("planned", static_cast<uint64_t>(manifest.pending.size()));
        w.Add("resumed", true);
        event_logger_->Emit(&w);
      }
      RotateOptions opts;
      RotateResult result;
      RunRotation(&manifest, opts, &result, /*background=*/true);
      dek_manager_->TryDrainPendingDeletes();
    }
    return;
  }
  RotateOptions opts;
  opts.max_dek_age_micros = options_.max_dek_age_micros;
  Rotate(opts, nullptr, /*background=*/true);
}

}  // namespace shield
