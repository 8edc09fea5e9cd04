#include "lsm/log_reader.h"

#include "crypto/block_auth.h"
#include "util/clock.h"
#include "util/coding.h"
#include "util/crc32c.h"

namespace shield {
namespace log {

Reader::Reader(SequentialFile* file, Reporter* reporter)
    : file_(file),
      reporter_(reporter),
      auth_(file->block_authenticator()),
      backing_store_(new char[kBlockSize]),
      stored_store_(auth_ != nullptr ? new char[kBlockSize] : nullptr) {}

bool Reader::ReadRecord(Slice* record, std::string* scratch) {
  scratch->clear();
  record->clear();
  bool in_fragmented_record = false;
  // True when the record being reassembled carries the padded-envelope
  // wrapping (established by its first fragment's type; continuation
  // fragments are plain kMiddle/kLast).
  bool padded_record = false;

  Slice fragment;
  while (true) {
    const unsigned int record_type = ReadPhysicalRecord(&fragment);
    switch (record_type) {
      case kFullType:
      case kPadFullType:
        if (in_fragmented_record) {
          ReportCorruption(scratch->size(), "partial record without end(1)");
        }
        scratch->clear();
        *record = fragment;
        if (record_type == kPadFullType && !StripPadding(record)) {
          in_fragmented_record = false;
          break;
        }
        return true;

      case kFirstType:
      case kPadFirstType:
        if (in_fragmented_record) {
          ReportCorruption(scratch->size(), "partial record without end(2)");
        }
        scratch->assign(fragment.data(), fragment.size());
        in_fragmented_record = true;
        padded_record = (record_type == kPadFirstType);
        break;

      case kMiddleType:
        if (!in_fragmented_record) {
          ReportCorruption(fragment.size(),
                           "missing start of fragmented record(1)");
        } else {
          scratch->append(fragment.data(), fragment.size());
        }
        break;

      case kLastType:
        if (!in_fragmented_record) {
          ReportCorruption(fragment.size(),
                           "missing start of fragmented record(2)");
        } else {
          scratch->append(fragment.data(), fragment.size());
          *record = Slice(*scratch);
          if (padded_record && !StripPadding(record)) {
            in_fragmented_record = false;
            padded_record = false;
            scratch->clear();
            break;
          }
          return true;
        }
        break;

      case kEof:
        if (in_fragmented_record) {
          // The writer died mid-record; treat the tail as lost.
          scratch->clear();
        }
        return false;

      case kBadRecord:
        if (in_fragmented_record) {
          ReportCorruption(scratch->size(), "error in middle of record");
          in_fragmented_record = false;
          scratch->clear();
        }
        break;

      default: {
        char buf[40];
        snprintf(buf, sizeof(buf), "unknown record type %u", record_type);
        ReportCorruption(
            (fragment.size() + (in_fragmented_record ? scratch->size() : 0)),
            buf);
        in_fragmented_record = false;
        scratch->clear();
        break;
      }
    }
  }
}

bool Reader::StripPadding(Slice* record) {
  // Envelope: fixed32 real_len | data | zeros. A malformed envelope is
  // corruption — padding must never wedge recovery, so the record is
  // reported and dropped rather than returned mangled.
  if (record->size() < static_cast<size_t>(kPadEnvelopeSize)) {
    ReportCorruption(record->size(), "padded record shorter than envelope");
    record->clear();
    return false;
  }
  const uint32_t real_len = DecodeFixed32(record->data());
  if (static_cast<uint64_t>(real_len) + kPadEnvelopeSize > record->size()) {
    ReportCorruption(record->size(), "padded record length overflows envelope");
    record->clear();
    return false;
  }
  *record = Slice(record->data() + kPadEnvelopeSize, real_len);
  return true;
}

void Reader::ReportCorruption(uint64_t bytes, const char* reason) {
  ReportDrop(bytes, Status::Corruption(reason));
}

void Reader::ReportDrop(uint64_t bytes, const Status& reason) {
  if (reporter_ != nullptr) {
    reporter_->Corruption(static_cast<size_t>(bytes), reason);
  }
}

unsigned int Reader::DropBlock(const char* reason) {
  ReportCorruption(buffer_.size(), reason);
  buffer_.clear();
  return kBadRecord;
}

Status Reader::ReadBlock() {
  if (auth_ == nullptr) {
    return file_->Read(kBlockSize, &buffer_, backing_store_.get());
  }
  Status s = file_->ReadStored(kBlockSize, &stored_, stored_store_.get());
  if (s.ok()) {
    buffer_ = stored_;
    s = file_->Decrypt(end_of_buffer_offset_, &buffer_, backing_store_.get());
  }
  return s;
}

unsigned int Reader::ReadPhysicalRecord(Slice* result) {
  while (true) {
    if (buffer_.size() < static_cast<size_t>(kHeaderSize)) {
      if (!eof_) {
        // Skip the block trailer and read the next block. A transient
        // read error (momentary device/fabric failure) is retried a
        // few times before the rest of the log is abandoned: giving up
        // on a blip would silently drop synced records during replay.
        buffer_.clear();
        Status status;
        constexpr int kMaxReadAttempts = 5;
        for (int attempt = 1;; attempt++) {
          status = ReadBlock();
          if (status.ok() || !status.IsTransient() ||
              attempt >= kMaxReadAttempts) {
            break;
          }
          SleepForMicros(100ull << attempt);
        }
        if (!status.ok()) {
          buffer_.clear();
          ReportDrop(kBlockSize, status);
          eof_ = true;
          return kEof;
        }
        end_of_buffer_offset_ += buffer_.size();
        if (buffer_.size() < static_cast<size_t>(kBlockSize)) {
          eof_ = true;
        }
        continue;
      }
      // Truncated header at EOF: the writer crashed mid-header.
      buffer_.clear();
      return kEof;
    }

    // Parse the header.
    const char* header = buffer_.data();
    const uint32_t a = static_cast<uint32_t>(header[4]) & 0xff;
    const uint32_t b = static_cast<uint32_t>(header[5]) & 0xff;
    const unsigned int type = static_cast<unsigned int>(header[6]);
    const uint32_t length = a | (b << 8);
    const bool authenticated =
        (type >= static_cast<unsigned int>(kFullAuthType) &&
         type <= static_cast<unsigned int>(kLastAuthType)) ||
        type == static_cast<unsigned int>(kPadFullAuthType) ||
        type == static_cast<unsigned int>(kPadFirstAuthType);
    const size_t tag_size = authenticated ? crypto::kBlockAuthTagSize : 0;
    if (kHeaderSize + length + tag_size > buffer_.size()) {
      if (!eof_) {
        return DropBlock("bad record length");
      }
      // Truncated record at EOF: the writer crashed mid-write.
      buffer_.clear();
      return kEof;
    }

    if (type == kZeroType && length == 0) {
      // Zero-filled padding (or preallocated space); skip the block.
      buffer_.clear();
      return kBadRecord;
    }

    if (auth_ != nullptr) {
      // Every record of an authenticated log carries a tag (decrypted
      // in buffer_) over its stored bytes at its absolute offset;
      // buffer_ ends where stored_ does, at end_of_buffer_offset_. A
      // record without a tag is not trusted, however valid its CRC.
      if (!authenticated) {
        return DropBlock("unauthenticated record in an authenticated log");
      }
      if (!auth_->VerifyCiphertext(
              end_of_buffer_offset_ - buffer_.size(),
              Slice(stored_.data() + stored_.size() - buffer_.size(),
                    kHeaderSize + length),
              Slice(header + kHeaderSize + length, tag_size))) {
        return DropBlock("record authentication tag mismatch");
      }
    }

    const uint32_t expected_crc = crc32c::Unmask(DecodeFixed32(header));
    const uint32_t actual_crc = crc32c::Value(header + 6, 1 + length);
    if (actual_crc != expected_crc) {
      return DropBlock("checksum mismatch");
    }

    buffer_.remove_prefix(kHeaderSize + length + tag_size);
    *result = Slice(header + kHeaderSize, length);
    // Callers only ever see the base fragment types; the authenticated
    // variants are a wire-level detail. (Padded-ness, by contrast, is
    // ReadRecord's business: it decides envelope stripping.)
    if (!authenticated) {
      return type;
    }
    return type >= static_cast<unsigned int>(kPadFullAuthType)
               ? type - kPadAuthTypeOffset
               : type - kAuthTypeOffset;
  }
}

}  // namespace log
}  // namespace shield
