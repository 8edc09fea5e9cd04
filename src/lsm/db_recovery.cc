#include <algorithm>

#include "lsm/db_impl.h"
#include "lsm/file_names.h"
#include "lsm/log_reader.h"
#include "lsm/sst_builder.h"
#include "util/clock.h"
#include "util/trace.h"

namespace shield {

// Replays one WAL into memtable(s), flushing overflow to level-0
// SSTs. In read-only mode everything stays in mem_.
Status DBImpl::RecoverLogFile(uint64_t log_number,
                              SequenceNumber* max_sequence,
                              VersionEdit* edit) {
  struct LogReporter : public log::Reader::Reporter {
    Status* status;
    void Corruption(size_t /*bytes*/, const Status& s) override {
      // Recovery tolerates a torn tail: record the first error but
      // keep consuming (the reader resynchronizes).
      if (status != nullptr && status->ok()) {
        *status = s;
      }
    }
  };

  const std::string fname = LogFileName(dbname_, log_number);
  std::unique_ptr<SequentialFile> file;
  Status status = files_->NewSequentialFile(fname, &file);
  if (!status.ok()) {
    return status;
  }

  LogReporter reporter;
  Status replay_corruption;
  reporter.status = &replay_corruption;
  log::Reader reader(file.get(), &reporter, /*checksum=*/true);

  Slice record;
  std::string scratch;
  MemTable* mem = nullptr;
  if (read_only_) {
    // Read-only instances accumulate all replayed WAL state in mem_.
    if (mem_ == nullptr) {
      mem_ = new MemTable(internal_comparator_);
      mem_->Ref();
    }
    mem = mem_;
  }
  while (reader.ReadRecord(&record, &scratch) && status.ok()) {
    if (record.size() < 12) {
      continue;  // malformed fragment already reported
    }
    WriteBatch batch;
    batch.SetContents(record);
    if (mem == nullptr) {
      mem = new MemTable(internal_comparator_);
      mem->Ref();
    }
    status = batch.InsertInto(mem);
    if (!status.ok()) {
      break;
    }
    const SequenceNumber last_seq =
        batch.Sequence() + batch.Count() - 1;
    if (last_seq > *max_sequence) {
      *max_sequence = last_seq;
    }

    if (!read_only_ &&
        mem->ApproximateMemoryUsage() > options_.write_buffer_size) {
      uint64_t pending_output = 0;
      status = WriteLevel0Table(mem, edit, &pending_output);
      // Single-threaded recovery: no concurrent GC, safe to unpin now.
      pending_outputs_.erase(pending_output);
      mem->Unref();
      mem = nullptr;
      if (!status.ok()) {
        break;
      }
    }
  }

  if (read_only_) {
    return status;  // everything stays in mem_
  }
  if (status.ok() && mem != nullptr && mem->NumEntries() > 0) {
    uint64_t pending_output = 0;
    status = WriteLevel0Table(mem, edit, &pending_output);
    pending_outputs_.erase(pending_output);
  }
  if (mem != nullptr) {
    mem->Unref();
  }
  if (status.ok() && options_.paranoid_checks && !replay_corruption.ok()) {
    // Default recovery treats in-log damage as a torn tail: the reader
    // already salvaged every record it could resynchronize to. Paranoid
    // mode surfaces the first error instead.
    return replay_corruption;
  }
  return status;
}

// Builds a level-0 SST from the contents of `mem` and records it in
// *edit. Under SHIELD the new file gets a fresh DEK automatically via
// the file factory. Called with mutex_ held (or during single-threaded
// recovery); the mutex is released for the duration of the build so
// foreground writes keep flowing — `mem` is immutable and referenced
// by the caller.
Status DBImpl::WriteLevel0Table(MemTable* mem, VersionEdit* edit,
                                uint64_t* pending_output) {
  *pending_output = 0;
  const uint64_t start_micros = NowMicros();
  FileMetaData meta;
  meta.number = versions_->NewFileNumber();
  pending_outputs_.insert(meta.number);

  ScopedTracerBinding trace_binding(&tracer_);
  TraceSpan flush_span(SpanType::kFlushJob);
  flush_span.SetArgs(meta.number, mem->NumEntries());
  if (event_logger_ != nullptr) {
    JsonWriter w = event_logger_->NewEvent("flush_begin");
    w.Add("file_number", meta.number);
    w.Add("mem_entries", static_cast<uint64_t>(mem->NumEntries()));
    w.Add("mem_bytes",
          static_cast<uint64_t>(mem->ApproximateMemoryUsage()));
    event_logger_->Emit(&w);
  }

  mutex_.unlock();

  std::unique_ptr<Iterator> iter(mem->NewIterator());

  const std::string fname = TableFileName(dbname_, meta.number);
  std::unique_ptr<WritableFile> file;
  Status s = files_->NewWritableFile(fname, FileKind::kSst, &file);
  if (!s.ok()) {
    mutex_.lock();
    pending_outputs_.erase(meta.number);
    return s;
  }

  {
    TableBuilder builder(options_, &internal_comparator_, file.get());
    iter->SeekToFirst();
    if (iter->Valid()) {
      meta.smallest.DecodeFrom(iter->key());
      Slice key;
      for (; iter->Valid(); iter->Next()) {
        key = iter->key();
        meta.largest_seq = std::max(meta.largest_seq, ExtractSequence(key));
        builder.Add(key, iter->value());
      }
      meta.largest.DecodeFrom(key);
      s = builder.Finish();
      meta.file_size = builder.FileSize();
    } else {
      builder.Abandon();
    }
  }
  if (s.ok()) {
    s = file->Sync();
  }
  if (s.ok()) {
    s = file->Close();
  }
  file.reset();

  mutex_.lock();
  if (s.ok() && meta.file_size > 0) {
    // Keep meta.number in pending_outputs_ until the caller has
    // installed the edit (see header comment).
    *pending_output = meta.number;
    edit->AddFile(0, meta.number, meta.file_size, meta.smallest,
                  meta.largest, meta.largest_seq);
  } else {
    pending_outputs_.erase(meta.number);
    files_->DeleteFile(fname);
  }

  CompactionStats stats;
  stats.micros = static_cast<int64_t>(NowMicros() - start_micros);
  stats.bytes_written = static_cast<int64_t>(meta.file_size);
  stats.count = 1;
  stats_[0].Add(stats);
  flush_span.MarkStatus(s);
  if (event_logger_ != nullptr) {
    JsonWriter w = event_logger_->NewEvent("flush_end");
    w.Add("file_number", meta.number);
    w.Add("file_size", meta.file_size);
    w.Add("micros", static_cast<uint64_t>(stats.micros));
    w.Add("ok", s.ok());
    if (!s.ok()) {
      w.Add("error", s.ToString());
    }
    event_logger_->Emit(&w);
  }
  if (s.ok() && meta.file_size > 0) {
    RecordTick(options_.statistics.get(), Tickers::kLsmFlushBytesWritten,
               meta.file_size);
    MeasureTime(options_.statistics.get(), Histograms::kFlushMicros,
                static_cast<uint64_t>(stats.micros));
    FlushJobInfo info;
    info.file_number = meta.number;
    info.file_size = meta.file_size;
    info.micros = static_cast<uint64_t>(stats.micros);
    for (const auto& listener : options_.listeners) {
      listener->OnFlushCompleted(info);
    }
  }
  return s;
}

Status DBImpl::TryCatchUp() {
  if (!read_only_) {
    return Status::OK();
  }

  // Catch-up work records into this replica's tracer (per-node trace
  // files in the simulated cluster); the manifest/WAL reads it issues
  // nest under this span.
  ScopedTracerBinding trace_binding(&tracer_);
  TraceSpan span(SpanType::kRecovery, Slice("catchup"));

  std::unique_lock<std::mutex> lock(mutex_);

  // Rebuild version state from the manifest the primary most recently
  // published, then re-replay its WALs.
  auto new_versions = std::make_unique<VersionSet>(
      dbname_, options_, &internal_comparator_, table_cache_.get(),
      files_.get());
  Status s = new_versions->Recover();
  if (!s.ok()) {
    return s;
  }

  if (mem_ != nullptr) {
    mem_->Unref();
  }
  mem_ = new MemTable(internal_comparator_);
  mem_->Ref();

  versions_ = std::move(new_versions);

  SequenceNumber max_sequence = 0;
  const uint64_t min_log = versions_->LogNumber();
  std::vector<std::string> filenames;
  s = options_.env->GetChildren(dbname_, &filenames);
  if (s.ok()) {
    std::vector<uint64_t> logs;
    uint64_t number;
    DbFileType type;
    for (const std::string& filename : filenames) {
      if (ParseFileName(filename, &number, &type) &&
          type == DbFileType::kLogFile && number >= min_log) {
        logs.push_back(number);
      }
    }
    std::sort(logs.begin(), logs.end());
    VersionEdit unused_edit;
    for (uint64_t log_number : logs) {
      Status ls = RecoverLogFile(log_number, &max_sequence, &unused_edit);
      if (!ls.ok() && !ls.IsNotFound()) {
        // The primary may delete a WAL while we read: retry next time.
        s = ls;
        break;
      }
    }
  }

  if (versions_->LastSequence() < max_sequence) {
    versions_->SetLastSequence(max_sequence);
  }
  if (s.ok()) {
    // This replica now reflects the primary's published state: reset
    // the catch-up lag baseline the health plane measures against.
    RecordCatchupApplied();
  }
  return s;
}

}  // namespace shield
