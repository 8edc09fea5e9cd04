// Online DEK rotation: rewrites each live SST to a fresh DEK as a
// one-file compaction in place at its level, through the same job
// CompactRange runs (offloaded to the CompactionService when one is
// set). Progress is persisted in the ROTATION manifest after every
// file, so a crash mid-rotation resumes instead of restarting. The old
// file's DEK is destroyed by garbage collection only after its
// replacement is durable in the version MANIFEST *and* the step is
// recorded in the rotation manifest, so no key is ever lost to a
// crash. Extends the paper's passive rotation-via-compaction (Section
// 5.2) into an on-demand / scheduled key-lifecycle job.

#include "lsm/db_impl.h"
#include "lsm/file_names.h"
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
  std::unique_lock<std::mutex> lock(mutex_);
  // Exclude compactions: a concurrent one could be merging the very
  // file being rewritten.
  Status s = AcquireCompactionSlot(&lock);
  if (!s.ok()) {
    return s;
  }
  Compaction* c = versions_->CompactFileInPlace(number);
  if (c == nullptr) {
    // Stale manifest entry: the file was compacted away (its DEK
    // died with it) since the plan was persisted. Nothing to do.
    *skipped = true;
  } else {
    const uint64_t file_size = c->input(0, 0)->file_size;
    // The compaction job, offloaded when a service is set, writes the
    // output under a fresh DEK. The old file stays on disk until
    // RunRotation has recorded the step.
    s = RunManualCompaction(c, /*remove_obsolete_files=*/false);
    if (s.ok()) {
      *bytes = file_size;
    }
  }
  ReleaseCompactionSlot();
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
