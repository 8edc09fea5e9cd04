#include "lsm/version_edit.h"

#include "util/coding.h"

namespace shield {

namespace {

// Tags for the serialized edit (values persisted on disk).
enum Tag : uint32_t {
  kComparator = 1,
  kLogNumber = 2,
  kNextFileNumber = 3,
  kLastSequence = 4,
  kDeletedFile = 6,
  // Read-only: the new-file entry without a tail size, which builds
  // before the tail read wrote. It decodes with tail_size = 0.
  kNewFile = 7,
  // kNewFile followed by the file's tail size. Binaries that predate
  // it reject the edit as "unknown tag".
  kNewFileWithTail = 8,
};

bool GetInternalKey(Slice* input, InternalKey* dst) {
  Slice str;
  if (GetLengthPrefixedSlice(input, &str)) {
    dst->DecodeFrom(str);
    return true;
  }
  return false;
}

bool GetLevel(Slice* input, int* level) {
  uint32_t v;
  if (GetVarint32(input, &v) && v < 64) {
    *level = static_cast<int>(v);
    return true;
  }
  return false;
}

}  // namespace

void VersionEdit::Clear() {
  comparator_.clear();
  log_number_ = 0;
  last_sequence_ = 0;
  next_file_number_ = 0;
  has_comparator_ = false;
  has_log_number_ = false;
  has_next_file_number_ = false;
  has_last_sequence_ = false;
  deleted_files_.clear();
  new_files_.clear();
}

void VersionEdit::EncodeTo(std::string* dst) const {
  if (has_comparator_) {
    PutVarint32(dst, kComparator);
    PutLengthPrefixedSlice(dst, comparator_);
  }
  if (has_log_number_) {
    PutVarint32(dst, kLogNumber);
    PutVarint64(dst, log_number_);
  }
  if (has_next_file_number_) {
    PutVarint32(dst, kNextFileNumber);
    PutVarint64(dst, next_file_number_);
  }
  if (has_last_sequence_) {
    PutVarint32(dst, kLastSequence);
    PutVarint64(dst, last_sequence_);
  }

  for (const auto& [level, number] : deleted_files_) {
    PutVarint32(dst, kDeletedFile);
    PutVarint32(dst, static_cast<uint32_t>(level));
    PutVarint64(dst, number);
  }

  for (const auto& [level, f] : new_files_) {
    PutVarint32(dst, kNewFileWithTail);
    PutVarint32(dst, static_cast<uint32_t>(level));
    PutVarint64(dst, f.number);
    PutVarint64(dst, f.file_size);
    PutLengthPrefixedSlice(dst, f.smallest.Encode());
    PutLengthPrefixedSlice(dst, f.largest.Encode());
    PutVarint64(dst, f.largest_seq);
    PutVarint64(dst, f.tail_size);
  }
}

Status VersionEdit::DecodeFrom(const Slice& src) {
  Clear();
  Slice input = src;
  const char* msg = nullptr;
  uint32_t tag;

  int level;
  uint64_t number;
  FileMetaData f;
  Slice str;

  while (msg == nullptr && GetVarint32(&input, &tag)) {
    switch (tag) {
      case kComparator:
        if (GetLengthPrefixedSlice(&input, &str)) {
          comparator_ = str.ToString();
          has_comparator_ = true;
        } else {
          msg = "comparator name";
        }
        break;

      case kLogNumber:
        if (GetVarint64(&input, &log_number_)) {
          has_log_number_ = true;
        } else {
          msg = "log number";
        }
        break;

      case kNextFileNumber:
        if (GetVarint64(&input, &next_file_number_)) {
          has_next_file_number_ = true;
        } else {
          msg = "next file number";
        }
        break;

      case kLastSequence:
        if (GetVarint64(&input, &last_sequence_)) {
          has_last_sequence_ = true;
        } else {
          msg = "last sequence";
        }
        break;

      case kDeletedFile:
        if (GetLevel(&input, &level) && GetVarint64(&input, &number)) {
          deleted_files_.insert(std::make_pair(level, number));
        } else {
          msg = "deleted file";
        }
        break;

      case kNewFile:
      case kNewFileWithTail:
        f.tail_size = 0;
        if (GetLevel(&input, &level) && GetVarint64(&input, &f.number) &&
            GetVarint64(&input, &f.file_size) &&
            GetInternalKey(&input, &f.smallest) &&
            GetInternalKey(&input, &f.largest) &&
            GetVarint64(&input, &f.largest_seq) &&
            (tag == kNewFile || GetVarint64(&input, &f.tail_size))) {
          new_files_.push_back(std::make_pair(level, f));
        } else {
          msg = "new-file entry";
        }
        break;

      default:
        msg = "unknown tag";
        break;
    }
  }

  if (msg == nullptr && !input.empty()) {
    msg = "invalid tag";
  }
  if (msg != nullptr) {
    return Status::Corruption("VersionEdit", msg);
  }
  return Status::OK();
}

std::string VersionEdit::DebugString() const {
  std::string r = "VersionEdit {";
  if (has_comparator_) {
    r += "\n  Comparator: " + comparator_;
  }
  if (has_log_number_) {
    r += "\n  LogNumber: " + std::to_string(log_number_);
  }
  if (has_next_file_number_) {
    r += "\n  NextFile: " + std::to_string(next_file_number_);
  }
  if (has_last_sequence_) {
    r += "\n  LastSeq: " + std::to_string(last_sequence_);
  }
  for (const auto& [level, number] : deleted_files_) {
    r += "\n  RemoveFile: " + std::to_string(level) + " " +
         std::to_string(number);
  }
  for (const auto& [level, f] : new_files_) {
    r += "\n  AddFile: " + std::to_string(level) + " " +
         std::to_string(f.number) + " " + std::to_string(f.file_size) +
         " tail " + std::to_string(f.tail_size);
  }
  r += "\n}\n";
  return r;
}

}  // namespace shield
