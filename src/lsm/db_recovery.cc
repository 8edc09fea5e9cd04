#include <algorithm>

#include "lsm/compaction_job.h"
#include "lsm/db_impl.h"
#include "lsm/file_names.h"
#include "lsm/log_reader.h"
#include "util/clock.h"
#include "util/trace.h"

namespace shield {

Status DBImpl::RecoverLogFile(uint64_t log_number, MemTable* replica_mem,
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
  log::Reader reader(file.get(), &reporter);

  Slice record;
  std::string scratch;
  MemTable* mem = replica_mem;
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

    if (replica_mem == nullptr &&
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

  if (replica_mem != nullptr) {
    // Everything stays in replica_mem. A read error the reader could
    // not retry away, or damage before the end of the WAL, cut the
    // replay short: the view would silently lack acknowledged writes.
    // (A record torn at the end, which the writer may still be
    // appending, is not reported.)
    return status.ok() ? replay_corruption : status;
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
  CompactionOutputMeta meta;
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
  SstOutput out(options_, &internal_comparator_);
  Status s = out.Open(files_.get(), fname, meta.number);
  if (!s.ok()) {
    mutex_.lock();
    pending_outputs_.erase(meta.number);
    return s;
  }
  for (iter->SeekToFirst(); s.ok() && iter->Valid(); iter->Next()) {
    s = out.Add(iter->key(), iter->value());
  }
  if (s.ok() && out.num_entries() > 0) {
    s = out.Finish(&meta);
  } else {
    // An empty memtable (or a failed Add): no table; the file is
    // deleted below.
    out.Abandon();
  }

  mutex_.lock();
  if (s.ok() && meta.file_size > 0) {
    // Keep meta.number in pending_outputs_ until the caller has
    // installed the edit (see header comment).
    *pending_output = meta.number;
    edit->AddFile(0, meta);
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

Status DBImpl::ListLogFiles(uint64_t min_log, std::vector<uint64_t>* logs) {
  std::vector<std::string> filenames;
  Status s = options_.env->GetChildren(dbname_, &filenames);
  if (!s.ok()) {
    return s;
  }
  uint64_t number;
  DbFileType type;
  for (const std::string& filename : filenames) {
    if (ParseFileName(filename, &number, &type) &&
        type == DbFileType::kLogFile && number >= min_log) {
      logs->push_back(number);
    }
  }
  std::sort(logs->begin(), logs->end());
  return Status::OK();
}

Status DBImpl::ReplayReplicaLogs(const VersionSet& versions, MemTable* mem,
                                 SequenceNumber* max_sequence) {
  std::vector<uint64_t> logs;
  Status s = ListLogFiles(versions.LogNumber(), &logs);
  if (!s.ok()) {
    return s;
  }
  // The WAL the manifest names exists from before the manifest named
  // it (log number 0 only precedes the writer's first open).
  if (versions.LogNumber() != 0 &&
      (logs.empty() || logs.front() != versions.LogNumber())) {
    return Status::NotFound("WAL of the replica's view is missing",
                            LogFileName(dbname_, versions.LogNumber()));
  }
  for (uint64_t log_number : logs) {
    s = RecoverLogFile(log_number, mem, max_sequence, /*edit=*/nullptr);
    if (!s.ok()) {
      return s;
    }
  }
  return Status::OK();
}

Status DBImpl::PublishLease(const ManifestPosition& position) {
  FileLease lease;
  lease.pinned = position;
  lease.written_micros = NowMicros();
  Status s = WriteFileLease(files_->env(), dbname_, lease_id_, lease);
  if (s.ok()) {
    lease_ = lease;
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

  if (NowMicros() - lease_.written_micros >= kFileLeaseTtlMicros / 2) {
    // The lease nears expiry, after which the writer drops it. Renew
    // it at the installed view's position before reading the new
    // view, so no file of the new view can go while it is built.
    Status s = PublishLease(lease_.pinned);
    if (!s.ok()) {
      return s;
    }
  }

  // Build the primary's most recently published state aside: the
  // installed view, and the lease that keeps its files, stay in force
  // until the new version set and every WAL it needs are in hand.
  auto new_versions = std::make_unique<VersionSet>(
      dbname_, options_, &internal_comparator_, table_cache_.get(),
      files_.get());
  Status s = new_versions->Recover();
  if (!s.ok()) {
    return s;
  }
  MemTable* new_mem = new MemTable(internal_comparator_);
  new_mem->Ref();
  SequenceNumber max_sequence = 0;
  s = ReplayReplicaLogs(*new_versions, new_mem, &max_sequence);
  if (!s.ok()) {
    new_mem->Unref();
    return s;
  }
  if (new_versions->LastSequence() < max_sequence) {
    new_versions->SetLastSequence(max_sequence);
  }

  mem_->Unref();
  mem_ = new_mem;
  retired_versions_.push_back(std::move(versions_));
  versions_ = std::move(new_versions);
  retired_versions_.erase(
      std::remove_if(retired_versions_.begin(), retired_versions_.end(),
                     [](const std::unique_ptr<VersionSet>& v) {
                       return !v->HasReferencedVersions();
                     }),
      retired_versions_.end());
  // This replica now reflects the primary's published state: reset
  // the catch-up lag baseline the health plane measures against.
  RecordCatchupApplied();
  // Move the lease up to the oldest view a reader still uses. If the
  // write fails the old lease stays in force; it pins an earlier
  // position, which keeps a superset of those files.
  const ManifestPosition held = lease_.pinned;
  const bool moved =
      PublishLease(retired_versions_.empty()
                       ? versions_->manifest_position()
                       : retired_versions_.front()->manifest_position())
          .ok() &&
      held < lease_.pinned;
  lock.unlock();
  if (moved) {
    NotifyLeaseReleased(dbname_);
  }
  return Status::OK();
}

}  // namespace shield
