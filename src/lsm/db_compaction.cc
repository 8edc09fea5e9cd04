#include <algorithm>

#include "lsm/db_impl.h"
#include "lsm/file_names.h"
#include "lsm/sst_builder.h"
#include "util/clock.h"
#include "util/perf_context.h"
#include "util/retry.h"
#include "util/trace.h"

namespace shield {

struct DBImpl::CompactionState {
  explicit CompactionState(Compaction* c) : compaction(c) {}

  Compaction* const compaction;

  // Sequence number below which overwritten/deleted entries can be
  // dropped (oldest live snapshot).
  SequenceNumber smallest_snapshot = 0;

  struct Output {
    uint64_t number;
    uint64_t file_size;
    InternalKey smallest, largest;
    SequenceNumber largest_seq = 0;
  };
  std::vector<Output> outputs;

  std::unique_ptr<WritableFile> outfile;
  std::unique_ptr<TableBuilder> builder;

  uint64_t total_bytes = 0;

  Output* current_output() { return &outputs[outputs.size() - 1]; }
};

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
  if (compaction_scheduled_ || shutting_down_.load(std::memory_order_acquire) ||
      !error_handler_.ok() || bg_pool_ == nullptr ||
      manual_compaction_running_ || !versions_->NeedsCompaction()) {
    return;
  }
  compaction_scheduled_ = true;
  bg_pool_->Schedule([this] { BackgroundCompaction(); });
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
      // never points at a GC'd table.
      return s;
    }
  }
  // Referenced by the installed version, or orphaned before any
  // manifest write (GC may collect it); unpin either way.
  pending_outputs_.erase(pending_output);

  if (s.ok()) {
    imm_->Unref();
    imm_ = nullptr;
    has_imm_.store(false, std::memory_order_release);
    RemoveObsoleteFiles();
  }
  return s;
}

void DBImpl::BackgroundCompaction() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (shutting_down_.load(std::memory_order_acquire) ||
      !error_handler_.ok()) {
    compaction_scheduled_ = false;
    background_work_finished_signal_.notify_all();
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
                       f->smallest, f->largest, f->largest_seq);
    status = versions_->LogAndApply(c->edit(), &mutex_);
    if (!status.ok()) {
      reason = BackgroundErrorReason::kManifestWrite;
    }
  } else {
    CompactionState compact(c);
    compact.smallest_snapshot = snapshots_.empty()
                                    ? versions_->LastSequence()
                                    : snapshots_.oldest()->sequence();
    status = DoCompactionWork(&compact, &reason);
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

  compaction_scheduled_ = false;
  // More work may have become available (or been created by this
  // compaction).
  MaybeScheduleCompaction();
  MaybeScheduleFlush();
  background_work_finished_signal_.notify_all();
}

Status DBImpl::OpenCompactionOutputFile(CompactionState* compact) {
  assert(compact != nullptr);
  assert(compact->builder == nullptr);
  uint64_t file_number;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    file_number = versions_->NewFileNumber();
    pending_outputs_.insert(file_number);
    CompactionState::Output out;
    out.number = file_number;
    out.file_size = 0;
    compact->outputs.push_back(out);
  }

  const std::string fname = TableFileName(dbname_, file_number);
  Status s = files_->NewWritableFile(fname, FileKind::kSst,
                                     &compact->outfile);
  if (s.ok()) {
    compact->builder = std::make_unique<TableBuilder>(
        options_, &internal_comparator_, compact->outfile.get());
  }
  return s;
}

Status DBImpl::FinishCompactionOutputFile(CompactionState* compact,
                                          Iterator* input) {
  assert(compact != nullptr);
  assert(compact->outfile != nullptr);
  assert(compact->builder != nullptr);

  const uint64_t output_number = compact->current_output()->number;
  assert(output_number != 0);

  Status s = input->status();
  const uint64_t current_entries = compact->builder->NumEntries();
  if (s.ok()) {
    s = compact->builder->Finish();
  } else {
    compact->builder->Abandon();
  }
  const uint64_t current_bytes = compact->builder->FileSize();
  compact->current_output()->file_size = current_bytes;
  compact->total_bytes += current_bytes;
  compact->builder.reset();

  if (s.ok()) {
    s = compact->outfile->Sync();
  }
  if (s.ok()) {
    s = compact->outfile->Close();
  }
  compact->outfile.reset();

  if (s.ok() && current_entries == 0) {
    // Empty output; drop it.
    files_->DeleteFile(TableFileName(dbname_, output_number));
    std::lock_guard<std::mutex> lock(mutex_);
    pending_outputs_.erase(output_number);
    compact->outputs.pop_back();
  }
  return s;
}

Status DBImpl::InstallCompactionResults(CompactionState* compact) {
  // mutex_ held.
  compact->compaction->AddInputDeletions(compact->compaction->edit());
  const int output_level = compact->compaction->output_level();
  for (const auto& out : compact->outputs) {
    compact->compaction->edit()->AddFile(output_level, out.number,
                                         out.file_size, out.smallest,
                                         out.largest, out.largest_seq);
  }
  Status s = versions_->LogAndApply(compact->compaction->edit(), &mutex_);
  if (s.ok()) {
    // Unpin only on success. On failure the manifest tail may already
    // reference the outputs (partially-appended durable edit), so they
    // must stay pinned — and on disk — until shutdown or a successful
    // retry.
    for (const auto& out : compact->outputs) {
      pending_outputs_.erase(out.number);
    }
  }
  return s;
}

// Performs the merge locally, or delegates to the configured
// compaction service (offloaded compaction). Called with mutex_ held;
// releases it during the heavy work.
Status DBImpl::DoCompactionWork(CompactionState* compact,
                                BackgroundErrorReason* reason) {
  const uint64_t start_micros = NowMicros();
  Compaction* c = compact->compaction;

  CompactionStats stats;
  stats.count = 1;

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
  // Every rewritten output gets a fresh DEK under SHIELD, so
  // output_files doubles as the DEK-rotation count for the job.
  auto emit_compaction_end = [this, c](const Status& s, int num_outputs,
                                       const CompactionStats& cs) {
    if (event_logger_ == nullptr) {
      return;
    }
    JsonWriter w = event_logger_->NewEvent("compaction_end");
    w.Add("level", c->level());
    w.Add("output_level", c->output_level());
    w.Add("output_files", num_outputs);
    if (options_.encryption.mode == EncryptionMode::kShield) {
      w.Add("dek_rotations", num_outputs);
    }
    w.Add("bytes_read", static_cast<uint64_t>(cs.bytes_read));
    w.Add("bytes_written", static_cast<uint64_t>(cs.bytes_written));
    w.Add("micros", static_cast<uint64_t>(cs.micros));
    w.Add("ok", s.ok());
    if (!s.ok()) {
      w.Add("error", s.ToString());
    }
    event_logger_->Emit(&w);
  };

  // Ticker + listener reporting for an installed compaction. Called
  // with mutex_ held, after LogAndApply succeeded.
  auto report_compaction = [this, c](const CompactionStats& cs, int nfiles) {
    RecordTick(options_.statistics.get(), Tickers::kLsmCompactionBytesRead,
               static_cast<uint64_t>(cs.bytes_read));
    RecordTick(options_.statistics.get(), Tickers::kLsmCompactionBytesWritten,
               static_cast<uint64_t>(cs.bytes_written));
    MeasureTime(options_.statistics.get(), Histograms::kCompactionMicros,
                static_cast<uint64_t>(cs.micros));
    CompactionJobInfo info;
    info.level = c->level();
    info.output_level = c->output_level();
    info.output_files = nfiles;
    info.bytes_read = static_cast<uint64_t>(cs.bytes_read);
    info.bytes_written = static_cast<uint64_t>(cs.bytes_written);
    info.micros = static_cast<uint64_t>(cs.micros);
    for (const auto& listener : options_.listeners) {
      listener->OnCompactionCompleted(info);
    }
  };

  if (options_.compaction_service != nullptr) {
    VersionEdit edit;
    Status s = DoOffloadedCompaction(c, &edit, &stats);
    if (s.ok()) {
      s = versions_->LogAndApply(&edit, &mutex_);
      if (s.ok()) {
        // Unpin the worker's outputs only after the edit is installed
        // — see WriteLevel0Table for the race this prevents. On a
        // manifest failure they stay pinned (the durable tail may
        // reference them).
        for (const uint64_t number : offload_pending_outputs_) {
          pending_outputs_.erase(number);
        }
      } else {
        *reason = BackgroundErrorReason::kManifestWrite;
      }
      const int num_outputs =
          static_cast<int>(offload_pending_outputs_.size());
      offload_pending_outputs_.clear();
      stats.micros = static_cast<int64_t>(NowMicros() - start_micros);
      stats_[c->output_level()].Add(stats);
      if (s.ok()) {
        report_compaction(stats, num_outputs);
      }
      comp_span.MarkStatus(s);
      emit_compaction_end(s, num_outputs, stats);
      return s;
    }
    // The remote service failed after its retry budget. Its outputs
    // were never referenced by any manifest edit, so unpin them and
    // let GC collect partial files.
    for (const uint64_t number : offload_pending_outputs_) {
      pending_outputs_.erase(number);
    }
    offload_pending_outputs_.clear();
    if (!options_.offload_fallback_to_local ||
        s.IsPermissionDenied() || s.IsCorruption() ||
        shutting_down_.load(std::memory_order_acquire)) {
      // Permission and corruption failures are deliberate rejections
      // (e.g. the KDS revoked the worker after a breach), not
      // unavailability; retrying the same bytes locally would mask the
      // alarm, so they always surface to the caller.
      *reason = BackgroundErrorReason::kOffload;
      stats.micros = static_cast<int64_t>(NowMicros() - start_micros);
      stats_[c->output_level()].Add(stats);
      comp_span.MarkStatus(s);
      emit_compaction_end(s, 0, stats);
      return s;
    }
    // Fall back to running the same compaction locally: an unreachable
    // or flaky storage service must not stall the LSM shape.
    offload_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    if (event_logger_ != nullptr) {
      JsonWriter w = event_logger_->NewEvent("offload_fallback");
      w.Add("level", c->level());
      w.Add("output_level", c->output_level());
      w.Add("error", s.ToString());
      event_logger_->Emit(&w);
    }
    stats = CompactionStats();
    stats.count = 1;
  }

  for (int which = 0; which < 2; which++) {
    for (int i = 0; i < c->num_input_files(which); i++) {
      stats.bytes_read +=
          static_cast<int64_t>(c->input(which, i)->file_size);
    }
  }

  const bool leveled =
      options_.compaction_style == CompactionStyle::kLeveled;

  mutex_.unlock();

  std::unique_ptr<Iterator> input(versions_->MakeInputIterator(c));
  input->SeekToFirst();
  Status status;
  ParsedInternalKey ikey;
  std::string current_user_key;
  bool has_current_user_key = false;
  SequenceNumber last_sequence_for_key = kMaxSequenceNumber;

  while (input->Valid() && !shutting_down_.load(std::memory_order_acquire)) {
    // Give memtable flushes priority: they block writers.
    if (has_imm_.load(std::memory_order_relaxed)) {
      mutex_.lock();
      MaybeScheduleFlush();
      mutex_.unlock();
    }

    const Slice key = input->key();

    bool drop = false;
    if (!ParseInternalKey(key, &ikey)) {
      // Corrupted key: pass it through so it is not silently lost.
      current_user_key.clear();
      has_current_user_key = false;
      last_sequence_for_key = kMaxSequenceNumber;
    } else {
      if (!has_current_user_key ||
          internal_comparator_.user_comparator()->Compare(
              ikey.user_key, Slice(current_user_key)) != 0) {
        // First occurrence of this user key.
        current_user_key.assign(ikey.user_key.data(), ikey.user_key.size());
        has_current_user_key = true;
        last_sequence_for_key = kMaxSequenceNumber;
      }

      if (last_sequence_for_key <= compact->smallest_snapshot) {
        // Shadowed by a newer entry for the same user key that every
        // snapshot can already see.
        drop = true;
      } else if (ikey.type == kTypeDeletion &&
                 ikey.sequence <= compact->smallest_snapshot &&
                 (c->bottommost() ||
                  (leveled && c->IsBaseLevelForKey(ikey.user_key)))) {
        // Tombstone with nothing underneath it to hide.
        drop = true;
      }

      last_sequence_for_key = ikey.sequence;
    }

    if (!drop) {
      if (compact->builder == nullptr) {
        status = OpenCompactionOutputFile(compact);
        if (!status.ok()) {
          break;
        }
      }
      if (compact->builder->NumEntries() == 0) {
        compact->current_output()->smallest.DecodeFrom(key);
      }
      compact->current_output()->largest.DecodeFrom(key);
      compact->current_output()->largest_seq = std::max(
          compact->current_output()->largest_seq, ExtractSequence(key));
      compact->builder->Add(key, input->value());

      if (compact->builder->FileSize() >= c->MaxOutputFileSize()) {
        status = FinishCompactionOutputFile(compact, input.get());
        if (!status.ok()) {
          break;
        }
      }
    }

    input->Next();
  }

  if (status.ok() && shutting_down_.load(std::memory_order_acquire)) {
    status = Status::IOError("deleting DB during compaction");
  }
  if (status.ok() && compact->builder != nullptr) {
    status = FinishCompactionOutputFile(compact, input.get());
  }
  if (compact->builder != nullptr) {
    // Shutdown or an error left an output open. Abandon it; the partial
    // file stays in `outputs`, which the failure path below unpins.
    compact->builder->Abandon();
    compact->builder.reset();
    compact->outfile->Close();
    compact->outfile.reset();
  }
  if (status.ok()) {
    status = input->status();
  }
  input.reset();

  stats.micros = static_cast<int64_t>(NowMicros() - start_micros);
  stats.bytes_written += static_cast<int64_t>(compact->total_bytes);

  mutex_.lock();
  stats_[c->output_level()].Add(stats);

  if (status.ok()) {
    // InstallCompactionResults unpins the outputs on success and keeps
    // them pinned on a manifest failure (the durable tail may already
    // reference them).
    status = InstallCompactionResults(compact);
    if (status.ok()) {
      report_compaction(stats, static_cast<int>(compact->outputs.size()));
    } else {
      *reason = BackgroundErrorReason::kManifestWrite;
    }
  } else {
    // Failed before any manifest write: the outputs are unreferenced,
    // so unpin them and let GC collect the partial files.
    for (const auto& out : compact->outputs) {
      pending_outputs_.erase(out.number);
    }
  }
  comp_span.MarkStatus(status);
  emit_compaction_end(status, static_cast<int>(compact->outputs.size()),
                      stats);
  return status;
}

// Ships the compaction to the remote service and applies its results.
// mutex_ held on entry/exit; released during the remote call.
Status DBImpl::DoOffloadedCompaction(Compaction* c, VersionEdit* edit,
                                     CompactionStats* stats) {
  CompactionJobSpec job;
  job.dbname = dbname_;
  job.level = c->level();
  job.output_level = c->output_level();
  job.bottommost = c->bottommost();
  job.smallest_snapshot = snapshots_.empty()
                              ? versions_->LastSequence()
                              : snapshots_.oldest()->sequence();
  job.max_output_file_size = c->MaxOutputFileSize() == UINT64_MAX
                                 ? 0
                                 : c->MaxOutputFileSize();

  uint64_t input_bytes = 0;
  for (int which = 0; which < 2; which++) {
    for (int i = 0; i < c->num_input_files(which); i++) {
      const FileMetaData* f = c->input(which, i);
      (which == 0 ? job.inputs0 : job.inputs1)
          .push_back({f->number, f->file_size});
      input_bytes += f->file_size;
    }
  }
  stats->bytes_read += static_cast<int64_t>(input_bytes);

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
    policy.max_attempts = std::max(1, options_.offload_max_attempts);
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
    c->AddInputDeletions(edit);
    for (const auto& out : result.outputs) {
      InternalKey smallest, largest;
      smallest.DecodeFrom(out.smallest_internal_key);
      largest.DecodeFrom(out.largest_internal_key);
      edit->AddFile(c->output_level(), out.number, out.file_size, smallest,
                    largest, out.largest_seq);
    }
    stats->bytes_written += static_cast<int64_t>(result.bytes_written);
  }
  // The caller erases these from pending_outputs_ after LogAndApply.
  offload_pending_outputs_ = job.output_numbers;
  return s;
}

Status DBImpl::RunManualCompaction(int level, const InternalKey* begin,
                                   const InternalKey* end) {
  std::unique_lock<std::mutex> lock(mutex_);
  // Exclude background compactions while the manual one runs.
  background_work_finished_signal_.wait(lock, [this] {
    return !compaction_scheduled_ || !error_handler_.ok();
  });
  if (!error_handler_.ok()) {
    return error_handler_.bg_error();
  }
  manual_compaction_running_ = true;

  Status status;
  Compaction* c = versions_->CompactRange(level, begin, end);
  if (c != nullptr) {
    // Manual compactions always rewrite — never trivial-move. Under
    // SHIELD, CompactRange doubles as the operator's forced
    // DEK-rotation tool: every byte in the range is re-encrypted under
    // fresh keys, and the old DEKs die with their files.
    CompactionState compact(c);
    compact.smallest_snapshot = snapshots_.empty()
                                    ? versions_->LastSequence()
                                    : snapshots_.oldest()->sequence();
    BackgroundErrorReason reason = BackgroundErrorReason::kCompaction;
    status = DoCompactionWork(&compact, &reason);
    c->ReleaseInputs();
    RemoveObsoleteFiles();
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
  }

  manual_compaction_running_ = false;
  MaybeScheduleCompaction();
  background_work_finished_signal_.notify_all();
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

  if (options_.compaction_style != CompactionStyle::kLeveled) {
    // Merge everything in one pass (all runs live at level 0).
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
    return RunManualCompaction(0, b, e);
  }

  int max_level_with_files = 1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Version* base = versions_->current();
    for (int level = 1; level < versions_->num_levels(); level++) {
      if (base->OverlapInLevel(level, begin, end)) {
        max_level_with_files = level;
      }
    }
  }
  for (int level = 0;
       level < std::min(max_level_with_files + 1,
                        versions_->num_levels() - 1);
       level++) {
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
    s = RunManualCompaction(level, b, e);
    if (!s.ok()) {
      return s;
    }
  }
  return s;
}

}  // namespace shield
