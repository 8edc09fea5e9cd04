#include "lsm/compaction_job.h"
#include "lsm/db_impl.h"
#include "lsm/file_names.h"
#include "util/clock.h"
#include "util/perf_context.h"
#include "util/retry.h"
#include "util/trace.h"

namespace shield {

void DBImpl::MaybeScheduleFlush() {
  // mutex_ held.
  if (flush_scheduled_ || shutting_down_.load(std::memory_order_acquire) ||
      !error_handler_.ok() || imm_ == nullptr || bg_pool_ == nullptr) {
    return;
  }
  flush_scheduled_ = true;
  bg_pool_->Schedule([this] { BackgroundFlush(); });
}

void DBImpl::MaybeScheduleCompaction() {
  // mutex_ held.
  if (compaction_slot_held_ ||
      shutting_down_.load(std::memory_order_acquire) ||
      !error_handler_.ok() || bg_pool_ == nullptr ||
      !versions_->NeedsCompaction()) {
    return;
  }
  compaction_slot_held_ = true;
  bg_pool_->Schedule([this] { BackgroundCompaction(); });
}

Status DBImpl::AcquireCompactionSlot(std::unique_lock<std::mutex>* lock) {
  background_work_finished_signal_.wait(*lock, [this] {
    return !compaction_slot_held_ ||
           shutting_down_.load(std::memory_order_acquire) ||
           !error_handler_.ok();
  });
  if (shutting_down_.load(std::memory_order_acquire)) {
    return Status::IOError("shutting down");
  }
  if (!error_handler_.ok()) {
    return error_handler_.bg_error();
  }
  compaction_slot_held_ = true;
  return Status::OK();
}

void DBImpl::ReleaseCompactionSlot() {
  compaction_slot_held_ = false;
  MaybeScheduleCompaction();
  background_work_finished_signal_.notify_all();
}

void DBImpl::BackgroundFlush() {
  uint64_t backoff_micros = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (imm_ != nullptr && error_handler_.ok() &&
        !shutting_down_.load(std::memory_order_acquire)) {
      BackgroundErrorReason reason = BackgroundErrorReason::kFlush;
      Status s = CompactMemTable(&reason);
      if (s.ok()) {
        // Clear every reason this job could have been retrying under;
        // the last clear completes recovery back to kActive.
        error_handler_.OnOperationSucceeded(BackgroundErrorReason::kFlush);
        error_handler_.OnOperationSucceeded(
            BackgroundErrorReason::kManifestWrite);
      } else if (!shutting_down_.load(std::memory_order_acquire)) {
        // Transient within budget: imm_ stays in place and the tail of
        // this function reschedules the flush after the backoff.
        // Otherwise the handler escalated and MaybeScheduleFlush is now
        // a no-op.
        backoff_micros = error_handler_.OnBackgroundError(reason, s);
      }
    }
  }
  if (backoff_micros > 0) {
    SleepForMicros(backoff_micros);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  flush_scheduled_ = false;
  MaybeScheduleFlush();
  MaybeScheduleCompaction();
  background_work_finished_signal_.notify_all();
}

// REQUIRES: mutex_ held, imm_ != nullptr.
Status DBImpl::CompactMemTable(BackgroundErrorReason* reason) {
  assert(imm_ != nullptr);

  VersionEdit edit;
  uint64_t pending_output = 0;
  Status s = WriteLevel0Table(imm_, &edit, &pending_output);

  if (s.ok() && shutting_down_.load(std::memory_order_acquire)) {
    s = Status::IOError("deleting DB during memtable compaction");
  }

  if (s.ok()) {
    edit.SetLogNumber(logfile_number_);  // earlier logs no longer needed
    s = versions_->LogAndApply(&edit, &mutex_);
    if (!s.ok()) {
      *reason = BackgroundErrorReason::kManifestWrite;
      // The manifest tail may already reference the new table (a
      // partially-appended but durable edit). Keep the file pinned and
      // on disk so a retry — or a recovery that salvages that tail —
      // never points at a GC'd table. This process's version does not
      // have it, though: drop its reader and cached blocks.
      table_cache_->EraseDeadTable(pending_output);
      return s;
    }
  }
  // Referenced by the installed version, or orphaned before any
  // manifest write (GC may collect it); unpin either way.
  pending_outputs_.erase(pending_output);
  if (!s.ok() && pending_output != 0) {
    // Not installed: no read will look for its open reader or the
    // blocks the flush wrote through.
    table_cache_->EraseDeadTable(pending_output);
  }

  if (s.ok()) {
    imm_->Unref();
    imm_ = nullptr;
    RemoveObsoleteFiles();
  }
  return s;
}

void DBImpl::BackgroundCompaction() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (shutting_down_.load(std::memory_order_acquire) ||
      !error_handler_.ok()) {
    ReleaseCompactionSlot();
    return;
  }

  Compaction* c = versions_->PickCompaction();
  Status status;
  BackgroundErrorReason reason = BackgroundErrorReason::kCompaction;
  if (c == nullptr) {
    // Nothing to do (a concurrent flush may resolve this).
  } else if (c->is_deletion_only()) {
    // FIFO eviction: drop the oldest files.
    c->AddInputDeletions(c->edit());
    status = versions_->LogAndApply(c->edit(), &mutex_);
    if (status.ok()) {
      RemoveObsoleteFiles();
    } else {
      reason = BackgroundErrorReason::kManifestWrite;
    }
  } else if (c->IsTrivialMove()) {
    // Move the file to the next level without rewriting.
    assert(c->num_input_files(0) == 1);
    FileMetaData* f = c->input(0, 0);
    c->edit()->RemoveFile(c->level(), f->number);
    c->edit()->AddFile(c->output_level(), f->number, f->file_size,
                       f->smallest, f->largest, f->largest_seq, f->tail_size);
    status = versions_->LogAndApply(c->edit(), &mutex_);
    if (!status.ok()) {
      reason = BackgroundErrorReason::kManifestWrite;
    }
  } else {
    status = DoCompactionWork(c, &reason);
    c->ReleaseInputs();
    RemoveObsoleteFiles();
  }
  delete c;

  uint64_t backoff_micros = 0;
  if (status.ok()) {
    // Clear every reason a compaction job can retry under; the last
    // clear completes recovery back to kActive when no other job is
    // still mid-retry.
    error_handler_.OnOperationSucceeded(BackgroundErrorReason::kCompaction);
    error_handler_.OnOperationSucceeded(BackgroundErrorReason::kOffload);
    error_handler_.OnOperationSucceeded(
        BackgroundErrorReason::kManifestWrite);
  } else if (shutting_down_.load(std::memory_order_acquire)) {
    // Expected during shutdown.
  } else {
    // Transient within budget: the picked inputs are still live, so
    // the next scheduling pass re-picks the same work after backing
    // off. Otherwise the handler escalated (read-only or halted) and
    // scheduling stops.
    backoff_micros = error_handler_.OnBackgroundError(reason, status);
  }
  if (backoff_micros > 0) {
    lock.unlock();
    SleepForMicros(backoff_micros);
    lock.lock();
  }

  // More work may have become available (or been created by this
  // compaction).
  ReleaseCompactionSlot();
  MaybeScheduleFlush();
}

// Performs the merge locally, or delegates to the configured
// compaction service (offloaded compaction), then installs the
// outputs. Called with mutex_ held; releases it during the heavy work.
Status DBImpl::DoCompactionWork(Compaction* c, BackgroundErrorReason* reason) {
  const uint64_t start_micros = NowMicros();
  const SequenceNumber smallest_snapshot =
      snapshots_.empty() ? versions_->LastSequence()
                         : snapshots_.oldest()->sequence();

  CompactionStats stats;
  stats.count = 1;
  for (int which = 0; which < 2; which++) {
    for (int i = 0; i < c->num_input_files(which); i++) {
      stats.bytes_read +=
          static_cast<int64_t>(c->input(which, i)->file_size);
    }
  }

  ScopedTracerBinding trace_binding(&tracer_);
  TraceSpan comp_span(SpanType::kCompactionJob);
  comp_span.SetArgs(static_cast<uint64_t>(c->level()),
                    static_cast<uint64_t>(c->output_level()));
  if (event_logger_ != nullptr) {
    JsonWriter w = event_logger_->NewEvent("compaction_begin");
    w.Add("level", c->level());
    w.Add("output_level", c->output_level());
    w.Add("inputs_level", c->num_input_files(0));
    w.Add("inputs_output_level", c->num_input_files(1));
    w.Add("offloaded", options_.compaction_service != nullptr);
    event_logger_->Emit(&w);
  }

  // The output numbers this job holds in pending_outputs_: the local
  // merge's outputs, or every number pre-allocated for the worker.
  std::vector<uint64_t> pinned;
  std::vector<CompactionOutputMeta> outputs;
  Status s;
  bool run_locally = options_.compaction_service == nullptr;
  if (!run_locally) {
    s = DoOffloadedCompaction(c, smallest_snapshot, &pinned, &outputs);
    if (!s.ok()) {
      // The remote service failed after its retry budget. Its outputs
      // were never referenced by any manifest edit, so unpin them and
      // let GC collect partial files.
      for (const uint64_t number : pinned) {
        pending_outputs_.erase(number);
      }
      pinned.clear();
      if (!options_.offload_fallback_to_local ||
          s.IsPermissionDenied() || s.IsCorruption() ||
          shutting_down_.load(std::memory_order_acquire)) {
        // Permission and corruption failures are deliberate rejections
        // (e.g. the KDS revoked the worker after a breach), not
        // unavailability; retrying the same bytes locally would mask
        // the alarm, so they always surface to the caller.
        *reason = BackgroundErrorReason::kOffload;
      } else {
        // Fall back to running the same compaction locally: an
        // unreachable or flaky storage service must not stall the LSM
        // shape.
        run_locally = true;
        RecordTick(options_.statistics.get(), Tickers::kLsmOffloadFallbacks,
                   1);
        if (event_logger_ != nullptr) {
          JsonWriter w = event_logger_->NewEvent("offload_fallback");
          w.Add("level", c->level());
          w.Add("output_level", c->output_level());
          w.Add("error", s.ToString());
          event_logger_->Emit(&w);
        }
      }
    }
  }

  if (run_locally) {
    const bool leveled =
        options_.compaction_style == CompactionStyle::kLeveled;
    CompactionJob job;
    job.options = &options_;
    job.icmp = &internal_comparator_;
    job.files = files_.get();
    job.dbname = dbname_;
    job.smallest_snapshot = smallest_snapshot;
    job.max_output_file_size = c->MaxOutputFileSize();
    job.nothing_below = [c, leveled](const Slice& user_key) {
      return c->bottommost() || (leveled && c->IsBaseLevelForKey(user_key));
    };
    job.new_file_number = [this, &pinned](uint64_t* number) {
      std::lock_guard<std::mutex> lock(mutex_);
      *number = versions_->NewFileNumber();
      pending_outputs_.insert(*number);
      pinned.push_back(*number);
      return Status::OK();
    };
    job.stop = &shutting_down_;

    mutex_.unlock();
    std::unique_ptr<Iterator> input(versions_->MakeInputIterator(c));
    s = job.Run(input.get(), &outputs);
    input.reset();
    mutex_.lock();
  }

  stats.micros = static_cast<int64_t>(NowMicros() - start_micros);
  for (const CompactionOutputMeta& out : outputs) {
    stats.bytes_written += static_cast<int64_t>(out.file_size);
  }
  stats_[c->output_level()].Add(stats);

  if (s.ok()) {
    c->AddInputDeletions(c->edit());
    for (const CompactionOutputMeta& out : outputs) {
      c->edit()->AddFile(c->output_level(), out);
    }
    s = versions_->LogAndApply(c->edit(), &mutex_);
    if (!s.ok()) {
      // The manifest tail may already reference the outputs (a
      // partially-appended durable edit), so they stay pinned — and on
      // disk — until shutdown or a successful retry.
      *reason = BackgroundErrorReason::kManifestWrite;
      pinned.clear();
    }
  }
  // Referenced by the installed version (see WriteLevel0Table for the
  // race that keeps them pinned until now), or failed before any
  // manifest write, so GC may collect the partial files: unpin either
  // way.
  for (const uint64_t number : pinned) {
    pending_outputs_.erase(number);
  }

  const int num_outputs = static_cast<int>(outputs.size());
  if (s.ok()) {
    RecordTick(options_.statistics.get(), Tickers::kLsmCompactionBytesRead,
               static_cast<uint64_t>(stats.bytes_read));
    RecordTick(options_.statistics.get(), Tickers::kLsmCompactionBytesWritten,
               static_cast<uint64_t>(stats.bytes_written));
    MeasureTime(options_.statistics.get(), Histograms::kCompactionMicros,
                static_cast<uint64_t>(stats.micros));
    CompactionJobInfo info;
    info.level = c->level();
    info.output_level = c->output_level();
    info.output_files = num_outputs;
    info.bytes_read = static_cast<uint64_t>(stats.bytes_read);
    info.bytes_written = static_cast<uint64_t>(stats.bytes_written);
    info.micros = static_cast<uint64_t>(stats.micros);
    for (const auto& listener : options_.listeners) {
      listener->OnCompactionCompleted(info);
    }
  }
  comp_span.MarkStatus(s);
  if (event_logger_ != nullptr) {
    JsonWriter w = event_logger_->NewEvent("compaction_end");
    w.Add("level", c->level());
    w.Add("output_level", c->output_level());
    w.Add("output_files", num_outputs);
    // Every rewritten output gets a fresh DEK under SHIELD, so
    // output_files doubles as the DEK-rotation count for the job.
    if (options_.encryption.mode == EncryptionMode::kShield) {
      w.Add("dek_rotations", num_outputs);
    }
    w.Add("bytes_read", static_cast<uint64_t>(stats.bytes_read));
    w.Add("bytes_written", static_cast<uint64_t>(stats.bytes_written));
    w.Add("micros", static_cast<uint64_t>(stats.micros));
    w.Add("ok", s.ok());
    if (!s.ok()) {
      w.Add("error", s.ToString());
    }
    event_logger_->Emit(&w);
  }
  return s;
}

// Ships the compaction to the remote service. mutex_ held on
// entry/exit; released during the remote call. Every pre-allocated
// output number is pinned in pending_outputs_ and listed in *pinned.
Status DBImpl::DoOffloadedCompaction(Compaction* c,
                                     SequenceNumber smallest_snapshot,
                                     std::vector<uint64_t>* pinned,
                                     std::vector<CompactionOutputMeta>* outputs) {
  CompactionJobSpec job;
  job.dbname = dbname_;
  job.level = c->level();
  job.output_level = c->output_level();
  job.bottommost = c->bottommost();
  job.smallest_snapshot = smallest_snapshot;
  job.max_output_file_size = c->MaxOutputFileSize() == UINT64_MAX
                                 ? 0
                                 : c->MaxOutputFileSize();

  uint64_t input_bytes = 0;
  for (int which = 0; which < 2; which++) {
    for (int i = 0; i < c->num_input_files(which); i++) {
      const FileMetaData* f = c->input(which, i);
      (which == 0 ? job.inputs0 : job.inputs1)
          .push_back({f->number, f->file_size, f->tail_size});
      input_bytes += f->file_size;
    }
  }

  // Pre-allocate output file numbers: worst case one output per
  // target_file_size_base of input, plus slack.
  size_t max_outputs = 4;
  if (job.max_output_file_size > 0) {
    max_outputs += input_bytes / job.max_output_file_size + 1;
  }
  for (size_t i = 0; i < max_outputs; i++) {
    const uint64_t number = versions_->NewFileNumber();
    job.output_numbers.push_back(number);
    pending_outputs_.insert(number);
  }
  *pinned = job.output_numbers;

  if (event_logger_ != nullptr) {
    JsonWriter w = event_logger_->NewEvent("offload_dispatch");
    w.Add("level", job.level);
    w.Add("output_level", job.output_level);
    w.Add("inputs", static_cast<uint64_t>(job.inputs0.size() +
                                          job.inputs1.size()));
    w.Add("input_bytes", input_bytes);
    event_logger_->Emit(&w);
  }

  CompactionJobResult result;
  Status s;
  {
    mutex_.unlock();
    TraceSpan rpc_span(SpanType::kOffloadRpc);
    rpc_span.SetArgs(input_bytes, 0);
    // Ship the dispatching span so the worker (possibly another node
    // with its own trace file) parents its RPC span to this one.
    job.trace = Tracer::CurrentContext();
    // Transient service failures (network faults, brief worker
    // unavailability) are retried with backoff before the job is
    // declared failed; each attempt restarts from the same spec and
    // rewrites the same output numbers from scratch.
    RetryPolicy policy;
    policy.max_attempts = 3;
    policy.initial_backoff_micros = 2000;
    policy.max_backoff_micros = 200 * 1000;
    s = RunWithRetry(policy, [&] {
      result = CompactionJobResult();
      return options_.compaction_service->RunCompaction(job, &result);
    });
    rpc_span.MarkStatus(s);
    mutex_.lock();
  }

  if (s.ok()) {
    *outputs = std::move(result.outputs);
  }
  return s;
}

// Runs one manual job to completion. mutex_ held, with the compaction
// slot held. Without `remove_obsolete_files` the inputs stay on disk
// for the caller's GC.
Status DBImpl::RunManualCompaction(Compaction* c, bool remove_obsolete_files) {
  // Manual compactions always rewrite — never trivial-move.
  BackgroundErrorReason reason = BackgroundErrorReason::kCompaction;
  Status status = DoCompactionWork(c, &reason);
  c->ReleaseInputs();
  if (remove_obsolete_files) {
    RemoveObsoleteFiles();
  }
  delete c;
  if (!status.ok() && !status.IsTransient() &&
      !shutting_down_.load(std::memory_order_acquire)) {
    // The caller sees the error directly, but a non-transient
    // failure (e.g. a torn manifest) still leaves the DB in the
    // same dangerous state a background job would have: record it
    // so the state machine gates writes consistently. Transient
    // manual failures are simply surfaced — the caller can retry.
    error_handler_.OnBackgroundError(reason, status);
  }
  return status;
}

Status DBImpl::CompactRange(const Slice* begin, const Slice* end) {
  if (read_only_) {
    return Status::NotSupported("read-only instance");
  }
  ScopedTracerBinding trace_binding(&tracer_);
  PerfOpBoundary();
  TraceSpan span(SpanType::kDbCompactRange);
  StopWatch watch(options_.statistics.get(),
                  Histograms::kDbCompactRangeMicros);
  Status s = Flush();
  if (!s.ok()) {
    return s;
  }

  InternalKey begin_key, end_key;
  const InternalKey* b = nullptr;
  const InternalKey* e = nullptr;
  if (begin != nullptr) {
    begin_key = InternalKey(*begin, kMaxSequenceNumber, kValueTypeForSeek);
    b = &begin_key;
  }
  if (end != nullptr) {
    end_key = InternalKey(*end, 0, static_cast<ValueType>(0));
    e = &end_key;
  }

  std::unique_lock<std::mutex> lock(mutex_);
  // Background compactions, and other manual work, stay out for the
  // whole call, so the levels below L0 change only by its own jobs.
  s = AcquireCompactionSlot(&lock);
  if (!s.ok()) {
    return s;
  }

  // Under SHIELD, CompactRange doubles as the operator's forced
  // DEK-rotation tool: every SST in the range that was live when the
  // call began is rewritten under fresh keys, and the old DEKs die with
  // their files.
  Compaction* c = nullptr;
  if (options_.compaction_style != CompactionStyle::kLeveled) {
    // Merge everything in one pass (all runs live at level 0).
    if ((c = versions_->CompactRange(0, b, e)) != nullptr) {
      s = RunManualCompaction(c);
    }
  } else {
    // Push the range down to the last level. L0 takes one pass: it
    // holds every L0 file in the range, and files flushed meanwhile are
    // new. Each level below is compacted until no file there overlaps
    // the range. Last, the last level's files that predate the call
    // and were not merged into are rewritten in place; the call's own
    // outputs are numbered after `first_new` and are left alone.
    const uint64_t first_new = versions_->NewFileNumber();
    const int last = versions_->num_levels() - 1;
    for (int level = 0; s.ok() && level < last; level++) {
      while (s.ok() && (c = versions_->CompactRange(level, b, e)) != nullptr) {
        s = RunManualCompaction(c);
        if (level == 0) {
          break;
        }
      }
    }
    while (s.ok() && last > 0 &&
           (c = versions_->CompactRangeInPlace(last, b, e, first_new)) !=
               nullptr) {
      s = RunManualCompaction(c);
    }
  }

  ReleaseCompactionSlot();
  return s;
}

}  // namespace shield
