#ifndef SHIELD_LSM_LOG_WRITER_H_
#define SHIELD_LSM_LOG_WRITER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "env/env.h"
#include "lsm/log_format.h"
#include "util/slice.h"
#include "util/statistics.h"
#include "util/status.h"

namespace shield {

namespace log {

/// Normalizes a padding-bucket configuration: sorted ascending, zeros
/// and duplicates dropped, every bucket floored to kPadEnvelopeSize
/// (a bucket must at least hold the envelope). Returns an empty vector
/// (padding disabled) when no usable bucket remains.
std::vector<uint32_t> SanitizePaddingBuckets(
    const std::vector<uint32_t>& buckets);

/// Size the padded envelope of an `n`-byte payload occupies under
/// `buckets` (sorted, non-empty; see SanitizePaddingBuckets): the
/// smallest bucket >= n + kPadEnvelopeSize, or — beyond the largest
/// bucket — the next multiple of the largest bucket.
uint64_t PaddedEnvelopeSize(const std::vector<uint32_t>& buckets, uint64_t n);

/// Appends length-prefixed, checksummed records to a WritableFile.
/// Encryption is layered *under* this writer: EncFS and SHIELD wrap the
/// destination file in an encrypting writer (shield/encrypted_file.h),
/// so the log format itself is unchanged whether the bytes on disk are
/// plaintext or ciphertext.
///
/// Every physical record (header|payload) reaches the file as one
/// sealed unit (WritableFile::AppendSealed). When the destination file
/// exposes a block authenticator (header format v2 or v3), the record
/// is emitted as its authenticated type (base + kAuthTypeOffset) and
/// the file follows it with a 16-byte tag over its ciphertext, under
/// the file's MAC (crypto/block_auth.h), keyed from the file key and
/// bound to the record's absolute offset in the file. The writer makes
/// no crypto call of its own.
///
/// When padding buckets are configured, every logical record is
/// wrapped in a `fixed32 real_len | data | zeros` envelope padded up
/// to the next bucket boundary, and records that would straddle a
/// block edge start on a fresh block instead — so on-wire physical
/// record sizes come from the bucket set (plus a deterministic
/// full-block/tail pair for records beyond one block), not from the
/// workload's operation sizes.
class Writer {
 public:
  /// `dest` must remain live; does not take ownership.
  explicit Writer(WritableFile* dest);
  /// Resume appending to a file with `dest_length` bytes already
  /// written.
  Writer(WritableFile* dest, uint64_t dest_length);
  /// Full control: `padding_buckets` enables record padding when
  /// non-empty (sanitized internally); `stats` (optional, must outlive
  /// the writer) receives shield.wal.padding.* tickers.
  Writer(WritableFile* dest, uint64_t dest_length,
         const std::vector<uint32_t>& padding_buckets, Statistics* stats);

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  Status AddRecord(const Slice& slice);

  /// Logical offset just past the last record written.
  uint64_t logical_offset() const { return logical_offset_; }

  /// True when this writer pads records (buckets configured).
  bool padding_enabled() const { return !pad_buckets_.empty(); }

 private:
  Status AddRecordImpl(const Slice& slice, bool padded);
  Status EmitPhysicalRecord(RecordType type, const char* ptr, size_t length);
  /// Zero-fills the remainder of the current block and rolls to the
  /// next one. No-op when already at a block start.
  Status FillBlockTrailer();

  WritableFile* dest_;
  // Bytes of the tag the file appends after each record: 0 for
  // unauthenticated files.
  const size_t tag_size_;
  int block_offset_ = 0;
  // Absolute logical offset of the next byte written; the tag of each
  // record is bound to this so records cannot be relocated.
  uint64_t logical_offset_ = 0;

  // Sorted bucket sizes for record padding; empty = disabled.
  const std::vector<uint32_t> pad_buckets_;
  Statistics* const stats_;

  // crc32c values for all supported record types, pre-computed over the
  // type byte to reduce overhead.
  uint32_t type_crc_[kMaxRecordType + 1];

  // Reused assembly buffer for header|payload, so each physical record
  // reaches the destination file as one sealed unit; also holds the
  // zeros of a block trailer.
  std::string rec_scratch_;
  // Reused envelope buffer for padded records (fixed32 len|data|zeros).
  std::string pad_scratch_;
};

}  // namespace log
}  // namespace shield

#endif  // SHIELD_LSM_LOG_WRITER_H_
