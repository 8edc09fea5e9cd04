#include <algorithm>

#include "lsm/db_impl.h"
#include "lsm/db_iter.h"
#include "lsm/merger.h"
#include "util/perf_context.h"
#include "util/trace.h"

namespace shield {

Status DBImpl::Get(const ReadOptions& options, const Slice& key,
                   std::string* value) {
  ScopedTracerBinding trace_binding(&tracer_);
  PerfOpBoundary();
  TraceSpan span(SpanType::kDbGet);
  StopWatch get_watch(options_.statistics.get(), Histograms::kDbGetMicros);
  NoteForegroundRead();
  Status s;
  std::unique_lock<std::mutex> lock(mutex_);
  if (!error_handler_.reads_allowed()) {
    // Halted (hard error): persistent state may be inconsistent, so
    // even reads could return wrong answers. Soft errors (read-only
    // state) do not take this branch — immutable SSTs stay correct.
    return error_handler_.bg_error();
  }
  SequenceNumber snapshot;
  if (options.snapshot != nullptr) {
    snapshot = static_cast<const SnapshotImpl*>(options.snapshot)->sequence();
  } else {
    snapshot = versions_->LastSequence();
  }

  MemTable* mem = mem_;
  MemTable* imm = imm_;
  Version* current = versions_->current();
  mem->Ref();
  if (imm != nullptr) {
    imm->Ref();
  }
  current->Ref();

  {
    // Release the lock while probing files.
    lock.unlock();
    LookupKey lkey(key, snapshot);
    if (mem->Get(lkey, value, &s)) {
      // Served from the memtable.
    } else if (imm != nullptr && imm->Get(lkey, value, &s)) {
      // Served from the immutable memtable.
    } else {
      s = current->Get(options, lkey, value);
    }
    lock.lock();
  }

  mem->Unref();
  if (imm != nullptr) {
    imm->Unref();
  }
  current->Unref();
  // NotFound is an answer, not an error.
  if (!s.ok() && !s.IsNotFound()) {
    span.SetError();
  }
  return s;
}

std::vector<Status> DBImpl::MultiGet(const ReadOptions& options,
                                     const std::vector<Slice>& keys,
                                     std::vector<std::string>* values) {
  ScopedTracerBinding trace_binding(&tracer_);
  PerfOpBoundary();
  TraceSpan span(SpanType::kDbMultiGet);
  span.SetArgs(keys.size(), 0);
  StopWatch watch(options_.statistics.get(), Histograms::kDbMultiGetMicros);
  values->clear();
  values->resize(keys.size());
  std::vector<Status> statuses(keys.size());
  if (keys.empty()) {
    return statuses;
  }
  NoteForegroundRead();
  RecordTick(options_.statistics.get(), Tickers::kLsmMultiGetKeys,
             keys.size());
  PerfAdd(&PerfContext::multiget_keys, keys.size());

  std::unique_lock<std::mutex> lock(mutex_);
  if (!error_handler_.reads_allowed()) {
    const Status err = error_handler_.bg_error();
    for (Status& s : statuses) {
      s = err;
    }
    return statuses;
  }
  // One snapshot for the whole batch: every key reads the same state,
  // as if N Gets ran back-to-back with no interleaved writes.
  SequenceNumber snapshot;
  if (options.snapshot != nullptr) {
    snapshot = static_cast<const SnapshotImpl*>(options.snapshot)->sequence();
  } else {
    snapshot = versions_->LastSequence();
  }
  MemTable* mem = mem_;
  MemTable* imm = imm_;
  Version* current = versions_->current();
  mem->Ref();
  if (imm != nullptr) {
    imm->Ref();
  }
  current->Ref();
  lock.unlock();

  // Memtable probes per key; the remainder goes to the version as one
  // sorted batch. (LookupKey is self-referential, hence the pointers.)
  std::vector<std::unique_ptr<LookupKey>> lkeys(keys.size());
  std::vector<VersionGetRequest> vreqs(keys.size());
  std::vector<VersionGetRequest*> misses;
  for (size_t i = 0; i < keys.size(); i++) {
    lkeys[i] = std::make_unique<LookupKey>(keys[i], snapshot);
    Status s;
    if (mem->Get(*lkeys[i], &(*values)[i], &s) ||
        (imm != nullptr && imm->Get(*lkeys[i], &(*values)[i], &s))) {
      statuses[i] = s;
      continue;
    }
    vreqs[i].key = lkeys[i].get();
    vreqs[i].value = &(*values)[i];
    misses.push_back(&vreqs[i]);
  }

  if (!misses.empty()) {
    // All lookup keys carry the same snapshot tag, so internal-key
    // order here is user-key order — the sortedness Table::MultiGet
    // relies on for block coalescing.
    std::sort(misses.begin(), misses.end(),
              [this](const VersionGetRequest* a, const VersionGetRequest* b) {
                return internal_comparator_.Compare(a->key->internal_key(),
                                                    b->key->internal_key()) < 0;
              });
    current->MultiGet(options, misses);
  }
  for (size_t i = 0; i < keys.size(); i++) {
    if (vreqs[i].key == nullptr) {
      continue;  // answered by a memtable above
    }
    statuses[i] = vreqs[i].done ? vreqs[i].status : Status::NotFound("");
  }

  lock.lock();
  mem->Unref();
  if (imm != nullptr) {
    imm->Unref();
  }
  current->Unref();
  return statuses;
}

Iterator* DBImpl::NewInternalIterator(const ReadOptions& options,
                                      SequenceNumber* latest_snapshot) {
  std::lock_guard<std::mutex> lock(mutex_);
  *latest_snapshot = versions_->LastSequence();
  if (!error_handler_.reads_allowed()) {
    return NewErrorIterator(error_handler_.bg_error());
  }

  std::vector<Iterator*> list;
  list.push_back(mem_->NewIterator());
  mem_->Ref();
  MemTable* imm = imm_;
  if (imm != nullptr) {
    list.push_back(imm->NewIterator());
    imm->Ref();
  }
  Version* current = versions_->current();
  current->AddIterators(options, &list);
  current->Ref();

  Iterator* internal_iter =
      NewMergingIterator(&internal_comparator_, list.data(),
                         static_cast<int>(list.size()));

  // The cleanup callback drops the references the iterator pinned.
  MemTable* mem = mem_;
  DBImpl* db = this;
  return NewDBIterator(
      internal_comparator_.user_comparator(), internal_iter,
      options.snapshot != nullptr
          ? static_cast<const SnapshotImpl*>(options.snapshot)->sequence()
          : *latest_snapshot,
      [db, mem, imm, current] {
        std::lock_guard<std::mutex> inner_lock(db->mutex_);
        mem->Unref();
        if (imm != nullptr) {
          imm->Unref();
        }
        current->Unref();
      },
      options_.statistics.get());
}

Iterator* DBImpl::NewIterator(const ReadOptions& options) {
  NoteForegroundRead();
  SequenceNumber latest_snapshot;
  return NewInternalIterator(options, &latest_snapshot);
}

}  // namespace shield
