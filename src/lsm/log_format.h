#ifndef SHIELD_LSM_LOG_FORMAT_H_
#define SHIELD_LSM_LOG_FORMAT_H_

namespace shield {
namespace log {

// The WAL/manifest record-block format, identical to LevelDB/RocksDB:
// the file is a sequence of 32 KiB blocks; each record fragment carries
// a 7-byte header: crc32c(4) | length(2) | type(1).

enum RecordType {
  kZeroType = 0,  // reserved for preallocated files
  kFullType = 1,
  kFirstType = 2,
  kMiddleType = 3,
  kLastType = 4,
  // Authenticated variants: same fragment semantics as (type - 4), but
  // the physical record is followed by a 16-byte tag computed over
  // header|payload at the record's absolute file offset. Writers emit
  // these when the destination file carries a block authenticator
  // (header format v2 or v3); readers map them back to
  // the base types after verifying the tag.
  kFullAuthType = 5,
  kFirstAuthType = 6,
  kMiddleAuthType = 7,
  kLastAuthType = 8,
  // Padded variants (WAL leakage countermeasure): the logical payload
  // is an envelope `fixed32 real_len | data | zeros`, padded up to a
  // configured bucket size before it reaches the block format, so the
  // ciphertext record sizes an adversary observes on the storage tier
  // come from a small fixed set instead of mirroring operation sizes.
  // Only the Full/First positions need padded variants: padded-ness is
  // a property of the whole logical record and is established at its
  // first fragment (continuation fragments reuse kMiddle/kLast). The
  // reader strips the envelope after reassembly, so callers above the
  // log layer never see padding.
  kPadFullType = 9,
  kPadFirstType = 10,
  // Authenticated + padded.
  kPadFullAuthType = 11,
  kPadFirstAuthType = 12,
};
static constexpr int kMaxRecordType = kPadFirstAuthType;
// Distance between an authenticated record type and its base type.
static constexpr int kAuthTypeOffset = kFullAuthType - kFullType;
// Same distance for the padded pair (which has no middle/last slots).
static constexpr int kPadAuthTypeOffset = kPadFullAuthType - kPadFullType;

static constexpr int kBlockSize = 32768;
static constexpr int kHeaderSize = 4 + 2 + 1;

// Bytes of the padded-record envelope that prefix the caller's data
// (the fixed32 real length).
static constexpr int kPadEnvelopeSize = 4;

}  // namespace log
}  // namespace shield

#endif  // SHIELD_LSM_LOG_FORMAT_H_
