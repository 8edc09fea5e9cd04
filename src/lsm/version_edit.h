#ifndef SHIELD_LSM_VERSION_EDIT_H_
#define SHIELD_LSM_VERSION_EDIT_H_

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lsm/format.h"
#include "util/status.h"

namespace shield {

/// Metadata for one SST file.
struct FileMetaData {
  int refs = 0;
  uint64_t number = 0;
  uint64_t file_size = 0;  // logical bytes
  InternalKey smallest;
  InternalKey largest;
  /// Highest sequence number contained in the file. Level-0 recency is
  /// keyed on THIS, not the file number: a compaction may finish after
  /// a newer memtable flush and then its (older-data) output would
  /// carry a higher file number.
  SequenceNumber largest_seq = 0;
};

/// A point in the writer's manifest history: the descriptor file number
/// and the logical offset just past a record in it. Positions order
/// lexicographically; descriptor numbers only grow, so a later edit
/// always sits at a greater position. {0, 0} precedes every edit.
struct ManifestPosition {
  uint64_t manifest_number = 0;
  uint64_t offset = 0;

  bool operator<(const ManifestPosition& other) const {
    return manifest_number != other.manifest_number
               ? manifest_number < other.manifest_number
               : offset < other.offset;
  }
};

/// A delta applied to the version state, serialized as one manifest
/// record.
class VersionEdit {
 public:
  VersionEdit() { Clear(); }

  void Clear();

  void SetComparatorName(const Slice& name) {
    has_comparator_ = true;
    comparator_ = name.ToString();
  }
  void SetLogNumber(uint64_t num) {
    has_log_number_ = true;
    log_number_ = num;
  }
  void SetNextFile(uint64_t num) {
    has_next_file_number_ = true;
    next_file_number_ = num;
  }
  void SetLastSequence(SequenceNumber seq) {
    has_last_sequence_ = true;
    last_sequence_ = seq;
  }

  void AddFile(int level, uint64_t number, uint64_t file_size,
               const InternalKey& smallest, const InternalKey& largest,
               SequenceNumber largest_seq) {
    FileMetaData f;
    f.number = number;
    f.file_size = file_size;
    f.smallest = smallest;
    f.largest = largest;
    f.largest_seq = largest_seq;
    new_files_.push_back(std::make_pair(level, f));
  }

  void RemoveFile(int level, uint64_t number) {
    deleted_files_.insert(std::make_pair(level, number));
  }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(const Slice& src);

  std::string DebugString() const;

 private:
  friend class VersionSet;

  using DeletedFileSet = std::set<std::pair<int, uint64_t>>;

  std::string comparator_;
  uint64_t log_number_ = 0;
  uint64_t next_file_number_ = 0;
  SequenceNumber last_sequence_ = 0;
  bool has_comparator_ = false;
  bool has_log_number_ = false;
  bool has_next_file_number_ = false;
  bool has_last_sequence_ = false;

  DeletedFileSet deleted_files_;
  std::vector<std::pair<int, FileMetaData>> new_files_;
};

}  // namespace shield

#endif  // SHIELD_LSM_VERSION_EDIT_H_
