#ifndef SHIELD_LSM_LOG_READER_H_
#define SHIELD_LSM_LOG_READER_H_

#include <cstdint>
#include <string>

#include "env/env.h"
#include "lsm/log_format.h"
#include "util/slice.h"
#include "util/status.h"

namespace shield {

namespace crypto {
class BlockAuthenticator;
}  // namespace crypto

namespace log {

/// Replays records written by log::Writer, skipping corrupted tails
/// (crash recovery tolerates a torn final record).
///
/// Authenticated record types (written when the file carries a block
/// authenticator) are verified against their tag at the record's
/// absolute offset, then mapped back to the base types before being
/// returned, so callers never see the wire-level distinction.
class Reader {
 public:
  /// Interface for reporting corruption during replay.
  class Reporter {
   public:
    virtual ~Reporter() = default;
    virtual void Corruption(size_t bytes, const Status& status) = 0;
  };

  /// `file` must remain live; does not take ownership. If
  /// `checksum` is true, verifies CRCs.
  Reader(SequentialFile* file, Reporter* reporter, bool checksum);
  ~Reader();

  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  /// Reads the next complete record into *record (may point into
  /// *scratch). Returns false at EOF.
  bool ReadRecord(Slice* record, std::string* scratch);

  /// Logical file offset just past the record ReadRecord last
  /// returned: the same number log::Writer::logical_offset() reported
  /// after writing that record.
  uint64_t LastRecordEndOffset() const {
    return end_of_buffer_offset_ - buffer_.size();
  }

 private:
  enum {
    kEof = kMaxRecordType + 1,
    kBadRecord = kMaxRecordType + 2,
  };

  unsigned int ReadPhysicalRecord(Slice* result);
  /// Strips the padded-record envelope (fixed32 real_len|data|zeros)
  /// from a reassembled record in place. Returns false (and reports
  /// corruption) on a malformed envelope.
  bool StripPadding(Slice* record);
  void ReportCorruption(uint64_t bytes, const char* reason);
  void ReportDrop(uint64_t bytes, const Status& reason);

  SequentialFile* const file_;
  Reporter* const reporter_;
  bool const checksum_;
  // Borrowed from file_; null for unauthenticated files.
  const crypto::BlockAuthenticator* const auth_;
  char* const backing_store_;
  Slice buffer_;
  bool eof_ = false;
  // File offset one past the last byte in buffer_; used to recover the
  // absolute offset of each record header for tag verification.
  uint64_t end_of_buffer_offset_ = 0;
};

}  // namespace log
}  // namespace shield

#endif  // SHIELD_LSM_LOG_READER_H_
