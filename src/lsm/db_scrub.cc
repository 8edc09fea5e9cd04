// The self-healing integrity scrubber: walks the live SSTs verifying
// every block's CRC (and HMAC tag on authenticated files) with fresh
// reads, quarantines files that fail, and repairs them — by re-fetching
// the disaggregated-storage replica when one is configured, by locally
// salvaging the readable blocks otherwise.

#include <algorithm>
#include <chrono>

#include "lsm/db_impl.h"
#include "lsm/file_names.h"
#include "lsm/sst_builder.h"
#include "lsm/sst_reader.h"
#include "util/clock.h"
#include "util/trace.h"

namespace shield {

Status DBImpl::VerifyIntegrity() {
  // Serialize with the background scrub thread; on-demand verification
  // is never throttled.
  std::lock_guard<std::mutex> pass_lock(scrub_pass_mutex_);
  ScrubStats stats;
  return ScrubPass(/*throttle=*/false, &stats);
}

Status DBImpl::ScrubPass(bool throttle, ScrubStats* stats) {
  ScopedTracerBinding trace_binding(&tracer_);
  TraceSpan pass_span(SpanType::kScrubPass);
  const uint64_t pass_start = NowMicros();
  std::vector<Version::LiveFileInfo> files;
  Version* version = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!error_handler_.reads_allowed()) {
      return error_handler_.bg_error();
    }
    // Pin the version: its files cannot be GC'd while the pass runs,
    // even if compactions replace them in newer versions.
    version = versions_->current();
    version->Ref();
    version->GetAllFiles(&files);
  }
  if (event_logger_ != nullptr) {
    JsonWriter w = event_logger_->NewEvent("scrub_begin");
    w.Add("files", static_cast<uint64_t>(files.size()));
    w.Add("throttled", throttle);
    event_logger_->Emit(&w);
  }

  Status first_failure;
  for (const auto& f : files) {
    if (shutting_down_.load(std::memory_order_acquire)) {
      break;
    }
    stats->files_scanned++;
    Status s = ScrubFile(f.level, f.number, f.file_size, throttle);
    if (s.ok()) {
      continue;
    }
    if (!s.IsCorruption()) {
      // Trouble reading the file (device/fabric error), not proven
      // damage: surface it without condemning the file.
      if (first_failure.ok()) {
        first_failure = s;
      }
      continue;
    }

    stats->corrupt_files++;
    scrub_corruptions_detected_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const std::string fname = TableFileName(dbname_, f.number);
      for (const auto& listener : options_.listeners) {
        listener->OnIntegrityViolation(fname, s);
      }
    }

    Status repair = options_.scrub_repair
                        ? HandleCorruptFile(f.level, f.number, f.file_size, s)
                        : s;
    if (repair.ok()) {
      stats->repaired_files++;
    } else if (first_failure.ok()) {
      first_failure = repair;
    }
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    version->Unref();
  }
  pass_span.SetArgs(stats->files_scanned, stats->corrupt_files);
  pass_span.MarkStatus(first_failure);
  if (event_logger_ != nullptr) {
    JsonWriter w = event_logger_->NewEvent("scrub_end");
    w.Add("files_scanned", stats->files_scanned);
    w.Add("corrupt_files", stats->corrupt_files);
    w.Add("repaired_files", stats->repaired_files);
    w.Add("micros", NowMicros() - pass_start);
    w.Add("ok", first_failure.ok());
    if (!first_failure.ok()) {
      w.Add("error", first_failure.ToString());
    }
    event_logger_->Emit(&w);
  }
  return first_failure;
}

Status DBImpl::ScrubFile(int level, uint64_t number, uint64_t file_size,
                         bool throttle) {
  (void)level;
  const std::string fname = TableFileName(dbname_, number);
  std::unique_ptr<RandomAccessFile> file;
  Status s = files_->NewRandomAccessFile(fname, &file);
  // A private Table with no block cache: every block comes straight
  // from the medium, so cached copies cannot mask on-media damage.
  std::unique_ptr<Table> table;
  if (s.ok()) {
    s = Table::Open(options_, &internal_comparator_, fname, std::move(file),
                    file_size, /*block_cache=*/nullptr, &table);
  }
  if (!s.ok()) {
    // The file-factory open reads the SHIELD header and resolves its
    // DEK id before the table is touched. On a live SST the engine
    // itself wrote, an unknown DEK id (NotFound; ids are random
    // 128-bit values) or an unknown format version (NotSupported; the
    // engine writes only versions it reads) means the stored header is
    // damaged, e.g. by a bit flip. Classify as corruption so the
    // repair path runs. Transient KDS trouble surfaces as TryAgain or
    // Busy and is still reported without condemning the file.
    if (s.IsNotFound()) {
      return Status::Corruption("embedded DEK id unresolvable", s.ToString());
    }
    if (s.IsNotSupported()) {
      return Status::Corruption("damaged SHIELD header", s.ToString());
    }
    return s;
  }

  const uint64_t rate = options_.scrub_bytes_per_second;
  uint64_t scanned_bytes = 0;
  const uint64_t start_micros = NowMicros();
  return table->VerifyBlocks([&](uint64_t bytes) {
    if (!throttle || rate == 0) {
      return;
    }
    // Pace the scan so scanned_bytes never runs ahead of the
    // configured bytes/second budget.
    scanned_bytes += bytes;
    const uint64_t target_micros = scanned_bytes * 1000000 / rate;
    const uint64_t elapsed = NowMicros() - start_micros;
    if (target_micros > elapsed) {
      SleepForMicros(target_micros - elapsed);
    }
  });
}

Status DBImpl::HandleCorruptFile(int level, uint64_t number,
                                 uint64_t file_size,
                                 const Status& corruption) {
  if (options_.replica_source != nullptr) {
    Status s = RepairFromReplica(level, number, file_size);
    if (s.ok()) {
      return s;
    }
    // The replica could not produce a verified copy (missing, damaged,
    // unreachable); fall through to salvaging what is locally
    // readable.
  }
  Status s = SalvageLocally(level, number, file_size);
  if (s.ok()) {
    return s;
  }
  // Repair failed: report the original proof of damage, which is more
  // actionable than the repair machinery's own error.
  return corruption;
}

// Copies the physical (encrypted) image of table file `number` to
// "<fname>.quarantine". The suffix defeats ParseFileName, so the copy
// survives RemoveObsoleteFiles indefinitely — corrupt ciphertext is
// evidence (of media failure or tampering), never silently discarded.
Status DBImpl::QuarantineFile(uint64_t number) {
  const std::string fname = TableFileName(dbname_, number);
  const std::string qname = fname + ".quarantine";
  std::unique_ptr<SequentialFile> in;
  Status s = raw_env_->NewSequentialFile(fname, &in);
  if (!s.ok()) {
    return s;
  }
  std::unique_ptr<WritableFile> out;
  s = raw_env_->NewWritableFile(qname, &out);
  if (!s.ok()) {
    return s;
  }
  char buf[64 * 1024];
  while (s.ok()) {
    Slice chunk;
    s = in->Read(sizeof(buf), &chunk, buf);
    if (!s.ok() || chunk.empty()) {
      break;
    }
    s = out->Append(chunk);
  }
  if (s.ok()) {
    s = out->Sync();
  }
  const Status close_status = out->Close();
  if (s.ok()) {
    s = close_status;
  }
  if (s.ok()) {
    scrub_quarantined_files_.fetch_add(1, std::memory_order_relaxed);
    if (event_logger_ != nullptr) {
      JsonWriter w = event_logger_->NewEvent("quarantine");
      w.Add("file_number", number);
      w.Add("path", qname);
      event_logger_->Emit(&w);
    }
  }
  return s;
}

Status DBImpl::RepairFromReplica(int level, uint64_t number,
                                 uint64_t file_size) {
  (void)level;
  const std::string fname = TableFileName(dbname_, number);
  std::string contents;
  Status s = options_.replica_source->FetchFile(fname, &contents);
  if (!s.ok()) {
    return s;
  }

  // Stage the fetched physical image in a temp file beside the
  // original, written through raw_env_: the bytes are already the
  // on-disk (encrypted) representation, so no layer may transform them
  // again. The temp name carries the live file number, which keeps GC
  // away from it for the staging window.
  const std::string temp = TempFileName(dbname_, number);
  {
    std::unique_ptr<WritableFile> out;
    s = raw_env_->NewWritableFile(temp, &out);
    if (!s.ok()) {
      return s;
    }
    s = out->Append(Slice(contents));
    if (s.ok()) {
      s = out->Sync();
    }
    const Status close_status = out->Close();
    if (s.ok()) {
      s = close_status;
    }
  }
  if (!s.ok()) {
    raw_env_->RemoveFile(temp);
    return s;
  }

  // Prove the replica copy good end-to-end — open it through the full
  // decryption stack and verify every block — before it replaces
  // anything.
  {
    std::unique_ptr<RandomAccessFile> file;
    s = files_->NewRandomAccessFile(temp, &file);
    std::unique_ptr<Table> table;
    if (s.ok()) {
      s = Table::Open(options_, &internal_comparator_, temp, std::move(file),
                      file_size, /*block_cache=*/nullptr, &table);
    }
    if (s.ok()) {
      s = table->VerifyBlocks(nullptr);
    }
    if (!s.ok()) {
      raw_env_->RemoveFile(temp);
      return s;
    }
  }

  // Keep the damaged bytes, then swap the verified copy in under the
  // live name with a rename — the file number never disappears from
  // the namespace, so a concurrent reader sees either the old or the
  // new image, never a missing file.
  s = QuarantineFile(number);
  if (s.ok()) {
    s = raw_env_->RenameFile(temp, fname);
  }
  if (!s.ok()) {
    raw_env_->RemoveFile(temp);
    return s;
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Drop the cached Table: it may hold blocks decoded from the
    // damaged image. The next read re-opens the repaired file.
    table_cache_->Evict(number);
    for (const auto& listener : options_.listeners) {
      listener->OnFileRepaired(fname, /*from_replica=*/true);
    }
  }
  scrub_repaired_files_.fetch_add(1, std::memory_order_relaxed);
  if (event_logger_ != nullptr) {
    JsonWriter w = event_logger_->NewEvent("file_repaired");
    w.Add("file_number", number);
    w.Add("from_replica", true);
    event_logger_->Emit(&w);
  }
  return Status::OK();
}

Status DBImpl::SalvageLocally(int level, uint64_t number,
                              uint64_t file_size) {
  const std::string fname = TableFileName(dbname_, number);

  uint64_t new_number = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Exclude compactions: the salvage swaps version state at this
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
    if (!versions_->current()->ContainsFile(level, number)) {
      // Compacted away since the scan: the damage left the live set.
      return Status::OK();
    }
    manual_compaction_running_ = true;  // keeps compactions out
    new_number = versions_->NewFileNumber();
    pending_outputs_.insert(new_number);
  }

  // Rewrite every readable entry into a fresh SST. Entries in blocks
  // that fail verification are dropped from the live set; their raw
  // bytes survive in the quarantine copy.
  Status s;
  InternalKey smallest, largest;
  SequenceNumber largest_seq = 0;
  uint64_t entries = 0;
  uint64_t dropped_blocks = 0;
  uint64_t new_size = 0;
  {
    std::unique_ptr<RandomAccessFile> file;
    s = files_->NewRandomAccessFile(fname, &file);
    std::unique_ptr<Table> table;
    if (s.ok()) {
      s = Table::Open(options_, &internal_comparator_, fname, std::move(file),
                      file_size, /*block_cache=*/nullptr, &table);
    }
    std::unique_ptr<WritableFile> outfile;
    if (s.ok()) {
      s = files_->NewWritableFile(TableFileName(dbname_, new_number),
                                  FileKind::kSst, &outfile);
    }
    if (s.ok()) {
      auto builder = std::make_unique<TableBuilder>(
          options_, &internal_comparator_, outfile.get());
      bool first = true;
      s = table->SalvageEntries(
          [&](const Slice& key, const Slice& value) {
            if (first) {
              smallest.DecodeFrom(key);
              first = false;
            }
            largest.DecodeFrom(key);
            largest_seq = std::max(largest_seq, ExtractSequence(key));
            builder->Add(key, value);
            entries++;
          },
          &dropped_blocks);
      if (s.ok()) {
        s = builder->Finish();
      } else {
        builder->Abandon();
      }
      new_size = builder->FileSize();
      builder.reset();
      if (s.ok()) {
        s = outfile->Sync();
      }
      if (s.ok()) {
        s = outfile->Close();
      }
    }
  }

  if (s.ok()) {
    s = QuarantineFile(number);
  }

  std::unique_lock<std::mutex> lock(mutex_);
  if (s.ok()) {
    // Swap the salvaged file in at the same level. Level-0 recency is
    // keyed on largest_seq, which the salvage preserves, so ordering
    // semantics survive the renumbering. A fully unreadable file is
    // simply removed.
    VersionEdit edit;
    edit.RemoveFile(level, number);
    if (entries > 0) {
      edit.AddFile(level, new_number, new_size, smallest, largest,
                   largest_seq);
    }
    s = versions_->LogAndApply(&edit, &mutex_);
    if (!s.ok() && !s.IsTransient() &&
        !shutting_down_.load(std::memory_order_acquire)) {
      // The version log may be torn mid-repair: same hazard as any
      // manifest failure, so it halts the DB through the same path.
      error_handler_.OnBackgroundError(BackgroundErrorReason::kManifestWrite,
                                       s);
    }
  }
  pending_outputs_.erase(new_number);
  if (s.ok()) {
    table_cache_->Evict(number);
    for (const auto& listener : options_.listeners) {
      listener->OnFileRepaired(fname, /*from_replica=*/false);
    }
    scrub_repaired_files_.fetch_add(1, std::memory_order_relaxed);
    if (event_logger_ != nullptr) {
      JsonWriter w = event_logger_->NewEvent("file_repaired");
      w.Add("file_number", number);
      w.Add("from_replica", false);
      w.Add("salvaged_entries", entries);
      w.Add("dropped_blocks", dropped_blocks);
      event_logger_->Emit(&w);
    }
    // The damaged original is no longer referenced: GC deletes the
    // live name (its bytes live on in the quarantine copy). On a
    // failed salvage the unreferenced output is left to the next GC.
    RemoveObsoleteFiles();
  }
  manual_compaction_running_ = false;
  MaybeScheduleCompaction();
  background_work_finished_signal_.notify_all();
  return s;
}

void DBImpl::ScrubLoop() {
  const auto interval =
      std::chrono::microseconds(options_.scrub_interval_micros);
  std::unique_lock<std::mutex> sl(scrub_mutex_);
  while (!scrub_stop_) {
    if (scrub_cv_.wait_for(sl, interval, [this] { return scrub_stop_; })) {
      return;
    }
    sl.unlock();
    Status s;
    {
      std::lock_guard<std::mutex> pass_lock(scrub_pass_mutex_);
      ScrubStats stats;
      s = ScrubPass(/*throttle=*/true, &stats);
    }
    if (!s.ok() && s.IsCorruption() &&
        !shutting_down_.load(std::memory_order_acquire)) {
      // Proven damage the repair pipeline could not heal: reads of
      // that file would fail or return wrong data, so it escalates as
      // a hard error. An operator inspects the quarantine copies and
      // re-opens.
      std::lock_guard<std::mutex> lock(mutex_);
      error_handler_.OnBackgroundError(BackgroundErrorReason::kScrub, s);
    }
    sl.lock();
  }
}

}  // namespace shield
