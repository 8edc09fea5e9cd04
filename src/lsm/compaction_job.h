#ifndef SHIELD_LSM_COMPACTION_JOB_H_
#define SHIELD_LSM_COMPACTION_JOB_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "lsm/compaction_service.h"
#include "lsm/format.h"
#include "lsm/iterator.h"
#include "lsm/options.h"
#include "lsm/sst_builder.h"
#include "shield/file_crypto.h"

namespace shield {

/// How a compaction reads its inputs: every block exactly once, in
/// order, so no block-cache fill and a 256 KiB readahead window.
/// The local job (VersionSet::MakeInputIterator) and the offload
/// worker both read through these options.
ReadOptions CompactionReadOptions();

/// One SST being written: a file opened through a DataFileFactory
/// (so under SHIELD it gets a fresh DEK) wrapped in a TableBuilder.
/// Tracks the key range, the largest sequence number and the entry
/// count of what was added. Every SST writer — flush, compaction on
/// either path, salvage, ingest and dump — writes through it.
class SstOutput {
 public:
  SstOutput(const Options& options, const InternalKeyComparator* icmp)
      : options_(options), icmp_(icmp) {}
  /// Abandons an output that is still open.
  ~SstOutput();

  SstOutput(const SstOutput&) = delete;
  SstOutput& operator=(const SstOutput&) = delete;

  /// Creates `fname` and starts a table in it. REQUIRES: !is_open().
  /// A flush passes its DB's block cache as `write_through`: the
  /// table's data blocks go into it as they are written
  /// (TableBuilder), and are erased again if the output fails.
  Status Open(DataFileFactory* files, const std::string& fname,
              uint64_t number, std::shared_ptr<Cache> write_through = nullptr);
  /// Appends one internal key; returns the builder's status.
  Status Add(const Slice& key, const Slice& value);
  /// Finishes the table, then syncs and closes the file, and describes
  /// it in *meta. The output is closed either way; on failure no block
  /// it wrote through stays cached.
  Status Finish(CompactionOutputMeta* meta);
  /// Drops the table unfinished and closes the file; the caller
  /// deletes it or leaves it to GC. A no-op when nothing is open.
  void Abandon();

  bool is_open() const { return builder_ != nullptr; }
  // REQUIRES: is_open().
  uint64_t num_entries() const { return builder_->NumEntries(); }
  uint64_t file_size() const { return builder_->FileSize(); }

 private:
  const Options& options_;
  const InternalKeyComparator* const icmp_;
  std::unique_ptr<WritableFile> file_;
  std::unique_ptr<TableBuilder> builder_;
  CompactionOutputMeta meta_;
};

/// The one compaction merge loop, shared by the local job
/// (DBImpl::DoCompactionWork) and the offload worker
/// (RemoteCompactionWorker::RunCompaction). DESIGN.md "The compaction
/// job" has the rules and what each caller passes.
struct CompactionJob {
  const Options* options = nullptr;
  const InternalKeyComparator* icmp = nullptr;
  DataFileFactory* files = nullptr;
  /// Outputs are named TableFileName(dbname, number).
  std::string dbname;
  /// A shadowed entry at or below this sequence is dropped.
  SequenceNumber smallest_snapshot = 0;
  /// An output is cut once it reaches this size.
  uint64_t max_output_file_size = UINT64_MAX;
  /// True when no data lies below the output for `user_key`, so a
  /// tombstone at or below smallest_snapshot has nothing to hide.
  std::function<bool(const Slice& user_key)> nothing_below;
  /// Names the next output file.
  std::function<Status(uint64_t* number)> new_file_number;
  /// When set and true, the job stops between entries and fails.
  const std::atomic<bool>* stop = nullptr;

  /// Merges `input` (not yet positioned) into outputs of at most
  /// max_output_file_size each, appending one entry per finished file
  /// to *outputs. On failure *outputs holds the files finished before
  /// it; any open output is abandoned.
  Status Run(Iterator* input, std::vector<CompactionOutputMeta>* outputs)
      const;
};

}  // namespace shield

#endif  // SHIELD_LSM_COMPACTION_JOB_H_
