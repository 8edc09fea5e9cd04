#include "lsm/compaction_job.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "lsm/file_names.h"

namespace shield {

namespace {

// Stored bytes each compaction input prefetches per read: one storage
// round trip per span on disaggregated storage.
constexpr size_t kCompactionReadaheadSize = 256 * 1024;

}  // namespace

ReadOptions CompactionReadOptions() {
  ReadOptions read_options;
  read_options.fill_cache = false;
  // Compaction scans every input block exactly once in order: the
  // ideal readahead consumer. Large prefetched spans replace
  // block-sized round trips (and decrypt in parallel shards under
  // SHIELD's multi-threaded chunk decryptor).
  read_options.readahead_size = kCompactionReadaheadSize;
  return read_options;
}

SstOutput::~SstOutput() { Abandon(); }

Status SstOutput::Open(DataFileFactory* files, const std::string& fname,
                       uint64_t number, std::shared_ptr<Cache> write_through) {
  assert(!is_open());
  Status s = files->NewWritableFile(fname, FileKind::kSst, &file_);
  if (!s.ok()) {
    return s;
  }
  builder_ = std::make_unique<TableBuilder>(
      options_, icmp_, file_.get(),
      BlockCacheRef{std::move(write_through), number});
  meta_ = CompactionOutputMeta();
  meta_.number = number;
  return Status::OK();
}

Status SstOutput::Add(const Slice& key, const Slice& value) {
  if (builder_->NumEntries() == 0) {
    meta_.smallest_internal_key.assign(key.data(), key.size());
  }
  meta_.largest_internal_key.assign(key.data(), key.size());
  meta_.largest_seq = std::max(meta_.largest_seq, ExtractSequence(key));
  builder_->Add(key, value);
  return builder_->status();
}

Status SstOutput::Finish(CompactionOutputMeta* meta) {
  Status s = builder_->Finish();
  meta_.file_size = builder_->FileSize();
  meta_.tail_size = builder_->TailSize();
  if (s.ok()) {
    s = file_->Sync();
  }
  if (s.ok()) {
    s = file_->Close();
  }
  if (!s.ok()) {
    builder_->EraseWrittenThrough();
  }
  builder_.reset();
  file_.reset();
  *meta = std::move(meta_);
  return s;
}

void SstOutput::Abandon() {
  if (builder_ == nullptr) {
    return;
  }
  builder_->Abandon();
  builder_.reset();
  file_->Close();
  file_.reset();
}

Status CompactionJob::Run(Iterator* input,
                          std::vector<CompactionOutputMeta>* outputs) const {
  const Comparator* ucmp = icmp->user_comparator();
  SstOutput out(*options, icmp);
  CompactionOutputMeta meta;
  Status s;
  ParsedInternalKey ikey;
  std::string current_user_key;
  bool has_current_user_key = false;
  SequenceNumber last_sequence_for_key = kMaxSequenceNumber;

  // There is no per-entry yield to memtable flushes: a flush is always
  // already scheduled while an immutable memtable waits.
  // DBImpl::SwitchMemTable schedules it when it creates imm_,
  // BackgroundFlush re-arms it under the same lock that clears
  // flush_scheduled_, and Resume re-arms it when the error state
  // clears; every other reason MaybeScheduleFlush declines (shutdown,
  // no background pool) would hold for a call from here too.
  for (input->SeekToFirst(); input->Valid(); input->Next()) {
    if (stop != nullptr && stop->load(std::memory_order_acquire)) {
      break;
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
          ucmp->Compare(ikey.user_key, Slice(current_user_key)) != 0) {
        // First occurrence of this user key.
        current_user_key.assign(ikey.user_key.data(), ikey.user_key.size());
        has_current_user_key = true;
        last_sequence_for_key = kMaxSequenceNumber;
      }

      if (last_sequence_for_key <= smallest_snapshot) {
        // Shadowed by a newer entry for the same user key that every
        // snapshot can already see.
        drop = true;
      } else if (ikey.type == kTypeDeletion &&
                 ikey.sequence <= smallest_snapshot &&
                 nothing_below(ikey.user_key)) {
        // Tombstone with nothing underneath it to hide.
        drop = true;
      }

      last_sequence_for_key = ikey.sequence;
    }
    if (drop) {
      continue;
    }

    // An output opens only to take an entry, so none is ever empty.
    if (!out.is_open()) {
      uint64_t number = 0;
      s = new_file_number(&number);
      if (s.ok()) {
        s = out.Open(files, TableFileName(dbname, number), number);
      }
      if (!s.ok()) {
        break;
      }
    }
    s = out.Add(key, input->value());
    if (s.ok() && out.file_size() >= max_output_file_size) {
      s = out.Finish(&meta);
      if (s.ok()) {
        outputs->push_back(std::move(meta));
      }
    }
    if (!s.ok()) {
      break;
    }
  }

  if (s.ok() && stop != nullptr && stop->load(std::memory_order_acquire)) {
    s = Status::IOError("deleting DB during compaction");
  }
  if (s.ok()) {
    s = input->status();
  }
  if (s.ok() && out.is_open()) {
    s = out.Finish(&meta);
    if (s.ok()) {
      outputs->push_back(std::move(meta));
    }
  }
  // Shutdown or an error may have left an output open: the destructor
  // abandons it, and the caller unpins its number.
  return s;
}

}  // namespace shield
