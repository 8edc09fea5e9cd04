#include "lsm/log_writer.h"

#include <algorithm>

#include "crypto/block_auth.h"
#include "util/coding.h"
#include "util/crc32c.h"

namespace shield {
namespace log {

std::vector<uint32_t> SanitizePaddingBuckets(
    const std::vector<uint32_t>& buckets) {
  std::vector<uint32_t> out;
  out.reserve(buckets.size());
  for (uint32_t b : buckets) {
    if (b >= static_cast<uint32_t>(kPadEnvelopeSize)) {
      out.push_back(b);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

uint64_t PaddedEnvelopeSize(const std::vector<uint32_t>& buckets, uint64_t n) {
  assert(!buckets.empty());
  const uint64_t needed = n + kPadEnvelopeSize;
  auto it = std::lower_bound(buckets.begin(), buckets.end(), needed);
  if (it != buckets.end()) {
    return *it;
  }
  // Beyond the largest bucket: round up to its next multiple, so large
  // records still land on a coarse grid instead of their exact size.
  const uint64_t largest = buckets.back();
  return ((needed + largest - 1) / largest) * largest;
}

Writer::Writer(WritableFile* dest) : Writer(dest, 0) {}

Writer::Writer(WritableFile* dest, uint64_t dest_length)
    : Writer(dest, dest_length, {}, nullptr) {}

Writer::Writer(WritableFile* dest, uint64_t dest_length,
               const std::vector<uint32_t>& padding_buckets,
               Statistics* stats)
    : dest_(dest),
      tag_size_(dest->block_authenticator() != nullptr
                    ? crypto::kBlockAuthTagSize
                    : 0),
      block_offset_(dest_length % kBlockSize),
      logical_offset_(dest_length),
      pad_buckets_(SanitizePaddingBuckets(padding_buckets)),
      stats_(stats) {
  for (int i = 0; i <= kMaxRecordType; i++) {
    char t = static_cast<char>(i);
    type_crc_[i] = crc32c::Value(&t, 1);
  }
}

Status Writer::AddRecord(const Slice& slice) {
  if (pad_buckets_.empty()) {
    return AddRecordImpl(slice, /*padded=*/false);
  }
  // Envelope: fixed32 real length | data | zeros up to the bucket
  // target. The zeros encrypt to ciphertext indistinguishable from
  // payload, so the storage tier observes only the bucket size.
  const uint64_t target = PaddedEnvelopeSize(pad_buckets_, slice.size());
  pad_scratch_.clear();
  pad_scratch_.reserve(target);
  PutFixed32(&pad_scratch_, static_cast<uint32_t>(slice.size()));
  pad_scratch_.append(slice.data(), slice.size());
  pad_scratch_.resize(target, '\0');
  RecordTick(stats_, Tickers::kShieldWalPaddingRecords, 1);
  RecordTick(stats_, Tickers::kShieldWalPaddingBytes,
             target - slice.size());
  return AddRecordImpl(Slice(pad_scratch_), /*padded=*/true);
}

Status Writer::FillBlockTrailer() {
  const int leftover = kBlockSize - block_offset_;
  if (leftover > 0 && leftover < kBlockSize) {
    // The reader skips any zero run inside a block (a kZeroType header
    // with length 0 abandons the rest of the block), so the fill size
    // does not matter to recovery.
    rec_scratch_.assign(static_cast<size_t>(leftover), '\0');
    Status s = dest_->Append(Slice(rec_scratch_));
    if (!s.ok()) {
      return s;
    }
    logical_offset_ += static_cast<uint64_t>(leftover);
  }
  block_offset_ = 0;
  return Status::OK();
}

Status Writer::AddRecordImpl(const Slice& slice, bool padded) {
  const char* ptr = slice.data();
  size_t left = slice.size();

  // Authenticated records carry their tag inside the block, so the
  // trailer-fill threshold and the per-fragment payload budget both
  // shrink by the tag size.
  const int min_record = kHeaderSize + static_cast<int>(tag_size_);

  if (padded) {
    // Start padded records on a fresh block when they would otherwise
    // straddle the edge: fragment shapes then depend only on the
    // bucket size, never on where the record happened to begin, so
    // the on-wire size set stays small. The skipped remainder is more
    // padding and is counted as such.
    const int leftover = kBlockSize - block_offset_;
    const size_t needed = static_cast<size_t>(min_record) + left;
    if (needed > static_cast<size_t>(leftover) && block_offset_ > 0) {
      Status s = FillBlockTrailer();
      if (!s.ok()) {
        return s;
      }
      RecordTick(stats_, Tickers::kShieldWalPaddingBytes,
                 static_cast<uint64_t>(leftover));
    }
  }

  Status s;
  bool begin = true;
  do {
    const int leftover = kBlockSize - block_offset_;
    assert(leftover >= 0);
    // Roll to the next block when the remainder cannot hold a header
    // (and tag), and also when it could hold only an EMPTY fragment
    // while payload bytes remain: emitting a zero-length kFirstType /
    // kMiddleType there would be legal but useless (the reader accepts
    // empty fragments), and with padding enabled such degenerate
    // fragments would add block-position-dependent sizes to the wire.
    if (leftover < min_record || (leftover == min_record && left > 0)) {
      s = FillBlockTrailer();
      if (!s.ok()) {
        return s;
      }
    }

    const size_t avail =
        static_cast<size_t>(kBlockSize - block_offset_) - kHeaderSize -
        tag_size_;
    const size_t fragment_length = (left < avail) ? left : avail;

    RecordType type;
    const bool end = (left == fragment_length);
    if (begin && end) {
      type = padded ? kPadFullType : kFullType;
    } else if (begin) {
      type = padded ? kPadFirstType : kFirstType;
    } else if (end) {
      type = kLastType;
    } else {
      type = kMiddleType;
    }

    s = EmitPhysicalRecord(type, ptr, fragment_length);
    ptr += fragment_length;
    left -= fragment_length;
    begin = false;
  } while (s.ok() && left > 0);
  return s;
}

Status Writer::EmitPhysicalRecord(RecordType t, const char* ptr,
                                  size_t length) {
  assert(length <= 0xffff);

  // The wire type distinguishes authenticated records so a reader can
  // tell from the header alone whether a tag follows the payload.
  RecordType wire_type = t;
  if (tag_size_ > 0) {
    wire_type = static_cast<RecordType>(
        t + (t >= kPadFullType ? kPadAuthTypeOffset : kAuthTypeOffset));
  }
  const size_t stored = kHeaderSize + length + tag_size_;
  assert(block_offset_ + stored <= static_cast<size_t>(kBlockSize));

  char buf[kHeaderSize];
  buf[4] = static_cast<char>(length & 0xff);
  buf[5] = static_cast<char>(length >> 8);
  buf[6] = static_cast<char>(wire_type);

  uint32_t crc = crc32c::Extend(type_crc_[wire_type], ptr, length);
  crc = crc32c::Mask(crc);
  EncodeFixed32(buf, crc);

  // header|payload reaches the destination as ONE sealed unit: an
  // encrypted destination pays a cipher seek per append, and an
  // authenticated one follows the unit with its tag, bound to the
  // record's absolute offset in this file (a record copied elsewhere
  // fails verification).
  rec_scratch_.assign(buf, kHeaderSize);
  rec_scratch_.append(ptr, length);
  Status s = dest_->AppendSealed(Slice(rec_scratch_), Slice());
  if (s.ok()) {
    // Advance only once the destination accepted the bytes: a retry on
    // this writer after a failed append (a transient fault, before the
    // taint/roll path replaces the file) must lay out its record where
    // it will land. A failed Flush after a successful append still
    // advances: the destination owns those bytes (SHIELD's buffered WAL
    // tracks its own durability watermark for them).
    block_offset_ += static_cast<int>(stored);
    logical_offset_ += stored;
    s = dest_->Flush();
  }
  return s;
}

}  // namespace log
}  // namespace shield
