#include <algorithm>
#include <vector>

#include "lsm/db_impl.h"
#include "lsm/file_names.h"
#include "util/clock.h"
#include "util/perf_context.h"
#include "util/trace.h"

namespace shield {

Status DBImpl::Put(const WriteOptions& options, const Slice& key,
                   const Slice& value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(options, &batch);
}

Status DBImpl::Delete(const WriteOptions& options, const Slice& key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(options, &batch);
}

Status DBImpl::Write(const WriteOptions& options, WriteBatch* updates) {
  if (read_only_) {
    return Status::NotSupported("read-only instance");
  }

  ScopedTracerBinding trace_binding(&tracer_);
  PerfOpBoundary();
  TraceSpan span(SpanType::kDbWrite);
  if (updates != nullptr) {
    span.SetArgs(updates->Count(), updates->ApproximateSize());
  }
  StopWatch write_watch(options_.statistics.get(),
                        Histograms::kDbWriteMicros);

  Writer w;
  w.batch = updates;
  w.sync = options.sync || options_.sync_wal;
  w.done = false;

  // The write queue has its own mutex, held only for queue edits: a
  // writer arriving while the leader works (which it does holding
  // mutex_ or no lock at all, never writers_mutex_) gets into the
  // queue immediately and rides the next group. Guarding the queue
  // with mutex_ itself would serialize arrivals behind the leader's
  // service time — every write becomes its own group (one futex
  // hand-off per op) and group commit never actually groups.
  std::unique_lock<std::mutex> qlock(writers_mutex_);
  writers_.push_back(&w);
  w.cv.wait(qlock, [&w, this] { return w.done || &w == writers_.front(); });
  if (w.done) {
    return w.status;
  }
  qlock.unlock();

  // We are the group leader. Lock order is mutex_ then writers_mutex_.
  std::unique_lock<std::mutex> lock(mutex_);
  Status status = MakeRoomForWrite(lock, updates == nullptr);
  SequenceNumber last_sequence = versions_->LastSequence();
  Writer* last_writer = &w;
  // The group, leader first, in queue order. Members leave this vector
  // only via early release below; everyone still in it is completed by
  // the final loop.
  std::vector<Writer*> group;
  group.push_back(&w);
  if (status.ok() && updates != nullptr) {
    WriteBatch* write_batch = nullptr;
    {
      std::lock_guard<std::mutex> qguard(writers_mutex_);
      write_batch = BuildBatchGroup(&last_writer);
      if (last_writer != &w) {
        for (auto iter = writers_.begin() + 1; iter != writers_.end();
             ++iter) {
          group.push_back(*iter);
          if (*iter == last_writer) {
            break;
          }
        }
      }
    }
    write_batch->SetSequence(last_sequence + 1);
    const uint32_t group_count = static_cast<uint32_t>(write_batch->Count());
    last_sequence += group_count;
    RecordTick(options_.statistics.get(), Tickers::kLsmWriteGroups, 1);
    RecordTick(options_.statistics.get(), Tickers::kLsmWriteGroupSize,
               group_count);
    PerfAdd(&PerfContext::write_group_size, group_count);

    // Pipeline stages, mutex released (&w is the only awake writer and
    // memtable inserts happen only under the leader):
    //   verify -> WAL append -> memtable apply -> publish -> Sync.
    mutex_.unlock();
    bool wal_error = false;
    bool sync_error = false;
    bool applied = false;
    // All-or-nothing: a malformed batch is rejected before it reaches
    // the WAL or the memtable. Verification depends only on the
    // rep bytes, so a batch that passes cannot fail the apply below —
    // the group is never left half-applied, and a corrupt record never
    // poisons WAL replay.
    status = write_batch->Verify();
    if (status.ok()) {
      TraceSpan wal_span(SpanType::kWalAppend);
      wal_span.SetArgs(write_batch->Count(), write_batch->Contents().size());
      PerfTimer wal_timer(&GetPerfContext()->wal_write_micros);
      status = log_->AddRecord(write_batch->Contents());
      wal_error = !status.ok();
      wal_span.MarkStatus(status);
    }
    bool apply_error = false;
    if (status.ok()) {
      PerfTimer mem_timer(&GetPerfContext()->memtable_insert_micros);
      // mem_ only changes under the leader itself (SwitchMemTable), so
      // the unlocked read is safe: no other thread writes it while we
      // lead.
      status = write_batch->InsertInto(mem_);
      applied = status.ok();
      // Unreachable after a successful Verify (the apply walks the
      // same bytes), but if it ever fires the WAL holds a record the
      // memtable only partially reflects — contain it like WAL damage
      // so the next write rolls to a fresh log + memtable.
      apply_error = !applied;
    }
    mutex_.lock();
    if (applied) {
      // Publish only after the group landed in both the WAL and the
      // memtable: a failed group must not advance the sequence (the
      // gap would stand for entries that never existed).
      versions_->SetLastSequence(last_sequence);
      if (w.sync) {
        // The group is applied and visible; followers that did not ask
        // for durability need not wait out the leader's Sync below.
        std::lock_guard<std::mutex> qguard(writers_mutex_);
        for (size_t i = 1; i < group.size();) {
          Writer* member = group[i];
          if (!member->sync) {
            auto pos = std::find(writers_.begin(), writers_.end(), member);
            assert(pos != writers_.end());
            writers_.erase(pos);
            group.erase(group.begin() + i);
            member->status = Status::OK();
            member->done = true;
            member->cv.notify_one();
          } else {
            ++i;
          }
        }
      }
    }
    if (status.ok() && w.sync) {
      mutex_.unlock();
      TraceSpan sync_span(SpanType::kWalAppend);
      sync_span.SetArgs(0, 0);
      PerfTimer wal_timer(&GetPerfContext()->wal_write_micros);
      status = logfile_->Sync();
      sync_error = !status.ok();
      sync_span.MarkStatus(status);
      mutex_.lock();
    }
    if (wal_error || sync_error || apply_error) {
      // The WAL may now end in a torn record; replay stops at the
      // first damage, so later appends to this file could vanish at
      // recovery even if synced. Roll it before the next write.
      log_tainted_ = true;
      // Surface the failure to listeners/counters; the state machine
      // is untouched because taint-and-roll already contains the
      // damage. A failed Sync after a successful apply keeps the
      // published sequence: the entries exist and stay visible; only
      // the durability promise failed, and every sync writer in the
      // group is told so below.
      error_handler_.OnForegroundError(
          sync_error ? BackgroundErrorReason::kWalSync
                     : BackgroundErrorReason::kWalAppend,
          status);
    }
    if (write_batch == &tmp_batch_) {
      tmp_batch_.Clear();
    }
  }
  lock.unlock();

  {
    std::lock_guard<std::mutex> qguard(writers_mutex_);
    for (Writer* ready : group) {
      assert(writers_.front() == ready);
      writers_.pop_front();
      if (ready != &w) {
        ready->status = status;
        ready->done = true;
        ready->cv.notify_one();
      }
    }
    if (!writers_.empty()) {
      writers_.front()->cv.notify_one();
    }
  }

  span.MarkStatus(status);
  return status;
}

// REQUIRES: writers_mutex_ held, this thread is at the front of writers_.
WriteBatch* DBImpl::BuildBatchGroup(Writer** last_writer) {
  assert(!writers_.empty());
  Writer* first = writers_.front();
  WriteBatch* result = first->batch;
  assert(result != nullptr);

  size_t size = first->batch->ApproximateSize();

  // Allow the group to grow to a maximum, but limit growth when the
  // first batch is small so small writes keep low latency.
  size_t max_size = 1 << 20;
  if (size <= (128 << 10)) {
    max_size = size + (128 << 10);
  }

  // Batch shaping (WAL leakage countermeasure): with padding buckets
  // configured the group's WAL record is padded up to a bucket
  // boundary regardless of its exact size, so a follower whose bytes
  // fit inside the bucket this group already commits to rides in
  // would-be padding — admit it even past max_size. Coalescing real
  // payload into the pad both shrinks overhead and removes a
  // group-count channel (N small writes and one shaped group are
  // indistinguishable on the wire).
  const std::vector<uint32_t>& buckets =
      options_.encryption.wal_padding_buckets;

  *last_writer = first;
  for (auto iter = writers_.begin() + 1; iter != writers_.end(); ++iter) {
    Writer* w = *iter;
    if (w->sync && !first->sync) {
      // Do not include a sync write into a batch handled by a
      // non-sync write.
      break;
    }
    if (w->batch == nullptr) {
      break;  // a force-compaction marker; handle separately
    }
    const size_t new_size = size + w->batch->ApproximateSize();
    if (new_size > max_size &&
        (buckets.empty() ||
         log::PaddedEnvelopeSize(buckets, new_size) !=
             log::PaddedEnvelopeSize(buckets, size))) {
      break;
    }
    size = new_size;
    if (result == first->batch) {
      // Switch to the scratch batch instead of disturbing the caller's.
      result = &tmp_batch_;
      assert(result->Count() == 0);
      result->Append(*first->batch);
    }
    result->Append(*w->batch);
    *last_writer = w;
  }
  return result;
}

// REQUIRES: mutex_ held, this thread leads the write queue.
Status DBImpl::MakeRoomForWrite(std::unique_lock<std::mutex>& lock,
                                bool force) {
  bool allow_delay = !force;
  Status s;
  auto record_stall = [this](uint64_t micros) {
    stall_micros_.fetch_add(micros, std::memory_order_relaxed);
    RecordTick(options_.statistics.get(), Tickers::kLsmStallMicros, micros);
    PerfAdd(&PerfContext::write_stall_micros, micros);
  };
  const bool stalls_apply =
      options_.compaction_style != CompactionStyle::kFifo;
  while (true) {
    if (!error_handler_.ok()) {
      s = error_handler_.bg_error();
      break;
    }
    if (allow_delay && stalls_apply &&
        versions_->NumLevelFiles(0) >=
            options_.level0_slowdown_writes_trigger) {
      // Soft limit: back off 1ms to let compaction catch up, at most
      // once per write.
      mutex_.unlock();
      SleepForMicros(1000);
      record_stall(1000);
      allow_delay = false;
      mutex_.lock();
    } else if (log_tainted_) {
      if (imm_ != nullptr) {
        background_work_finished_signal_.wait(
            lock, [this] { return imm_ == nullptr || !error_handler_.ok(); });
      } else {
        // SwitchMemTable clears the taint only once a fresh WAL is
        // actually installed; if it fails before that (e.g. the new
        // file cannot be created), the taint persists and this write
        // fails rather than appending to the damaged log.
        s = SwitchMemTable(lock);
        if (!s.ok()) {
          break;
        }
        force = false;
      }
    } else if (!force &&
               mem_->ApproximateMemoryUsage() <= options_.write_buffer_size) {
      break;  // room available
    } else if (imm_ != nullptr) {
      // Previous memtable still flushing: wait.
      const uint64_t t0 = NowMicros();
      background_work_finished_signal_.wait(lock,
                                            [this] { return imm_ == nullptr ||
                                                            !error_handler_.ok(); });
      record_stall(NowMicros() - t0);
    } else if (stalls_apply && versions_->NumLevelFiles(0) >=
                                   options_.level0_stop_writes_trigger) {
      // Hard limit.
      const uint64_t t0 = NowMicros();
      background_work_finished_signal_.wait(lock, [this] {
        return versions_->NumLevelFiles(0) <
                   options_.level0_stop_writes_trigger ||
               !error_handler_.ok();
      });
      record_stall(NowMicros() - t0);
    } else {
      // Switch to a new memtable and WAL.
      s = SwitchMemTable(lock);
      if (!s.ok()) {
        break;
      }
      force = false;
    }
  }
  return s;
}

// REQUIRES: mutex_ held.
Status DBImpl::SwitchMemTable(std::unique_lock<std::mutex>& lock) {
  (void)lock;
  assert(imm_ == nullptr);
  TraceSpan roll_span(SpanType::kWalRoll);
  const bool was_tainted = log_tainted_;
  const uint64_t new_log_number = versions_->NewFileNumber();
  std::unique_ptr<WritableFile> lfile;
  Status s = files_->NewWritableFile(LogFileName(dbname_, new_log_number),
                                     FileKind::kWal, &lfile);
  if (!s.ok()) {
    // Avoid chewing through file numbers in a tight loop on errors.
    versions_->MarkFileNumberUsed(new_log_number);
    roll_span.SetError();
    return s;
  }
  roll_span.SetArgs(logfile_number_, new_log_number);
  if (event_logger_ != nullptr) {
    JsonWriter w = event_logger_->NewEvent("wal_roll");
    w.Add("old_log_number", logfile_number_);
    w.Add("new_log_number", new_log_number);
    w.Add("tainted", was_tainted);
    event_logger_->Emit(&w);
  }
  log_.reset();
  Status close_status;
  if (logfile_ != nullptr) {
    // Drains any SHIELD WAL buffer. A failure loses only the unsynced
    // tail of the outgoing log — those entries live in imm_ below and
    // are persisted by the scheduled flush — but it must be surfaced
    // to the write that forced the switch, not swallowed.
    close_status = logfile_->Close();
  }
  logfile_ = std::move(lfile);
  logfile_number_ = new_log_number;
  log_ = std::make_unique<log::Writer>(
      logfile_.get(), 0, options_.encryption.wal_padding_buckets,
      options_.statistics.get());
  // Any damage recorded against the outgoing WAL stays with it: the
  // replacement is fresh even if closing the old file failed above.
  log_tainted_ = false;
  imm_ = mem_;
  has_imm_.store(true, std::memory_order_release);
  mem_ = new MemTable(internal_comparator_);
  mem_->Ref();
  MaybeScheduleFlush();
  return close_status;
}

Status DBImpl::Flush() {
  if (read_only_) {
    return Status::NotSupported("read-only instance");
  }
  ScopedTracerBinding trace_binding(&tracer_);
  PerfOpBoundary();
  TraceSpan span(SpanType::kDbFlush);
  StopWatch watch(options_.statistics.get(), Histograms::kDbFlushMicros);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (mem_->NumEntries() == 0 && imm_ == nullptr && !flush_scheduled_) {
      // Nothing to flush, but do not mask a standing background error:
      // the slow path below would have surfaced it, and callers use
      // Flush() as a durability barrier.
      return error_handler_.bg_error();
    }
  }
  // A null batch forces a memtable switch via MakeRoomForWrite.
  Status s = Write(WriteOptions(), nullptr);
  if (!s.ok()) {
    return s;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  background_work_finished_signal_.wait(lock, [this] {
    return (imm_ == nullptr && !flush_scheduled_) || !error_handler_.ok();
  });
  return error_handler_.bg_error();
}

}  // namespace shield
