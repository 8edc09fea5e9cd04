#include "lsm/table_format.h"

#include <cstring>

#include "crypto/block_auth.h"
#include "util/clock.h"
#include "util/coding.h"
#include "util/crc32c.h"

namespace shield {

namespace {
std::string BlockErrorMessage(const char* what, const BlockHandle& handle,
                              const std::string& fname) {
  std::string msg = what;
  msg += " at offset ";
  msg += std::to_string(handle.offset());
  if (!fname.empty()) {
    msg += " in ";
    msg += fname;
  }
  return msg;
}

// Shared core of ReadBlock and VerifyStoredBlock. `stored` is the
// block's stored image: handle.size() payload bytes, the trailer and,
// on an authenticated file, the tag. The file checks the tag over the
// stored bytes before it decrypts payload and trailer once into `out`;
// then the CRC is checked on that plaintext. With the tag over
// ciphertext, the CRC is what shows that the decrypt reproduced the
// writer's bytes, and on an unauthenticated file it is the only check.
// `*payload` lands in `out`, or in `stored` for a plaintext file.
Status OpenBlock(const RandomAccessFile* file, const BlockHandle& handle,
                 const Slice& stored, char* out, const std::string& fname,
                 Slice* payload) {
  Slice unit;
  Status s = file->Unseal(handle.offset(), stored, out, &unit);
  if (s.IsCorruption()) {
    return Status::Corruption(
        BlockErrorMessage("block authentication tag mismatch", handle, fname));
  }
  if (!s.ok()) {
    return s;
  }
  const size_t n = static_cast<size_t>(handle.size());
  const char* data = unit.data();
  if (unit.size() != n + kBlockTrailerSize ||
      crc32c::Value(data, n + 1) !=
          crc32c::Unmask(DecodeFixed32(data + n + 1))) {
    return Status::Corruption(
        BlockErrorMessage("block checksum mismatch", handle, fname));
  }
  *payload = Slice(data, n);
  return Status::OK();
}
}  // namespace

void BlockHandle::EncodeTo(std::string* dst) const {
  PutVarint64(dst, offset_);
  PutVarint64(dst, size_);
}

Status BlockHandle::DecodeFrom(Slice* input) {
  if (GetVarint64(input, &offset_) && GetVarint64(input, &size_)) {
    return Status::OK();
  }
  return Status::Corruption("bad block handle");
}

void Footer::EncodeTo(std::string* dst) const {
  const size_t original_size = dst->size();
  properties_handle_.EncodeTo(dst);
  index_handle_.EncodeTo(dst);
  dst->resize(original_size + 2 * BlockHandle::kMaxEncodedLength);  // pad
  PutFixed32(dst, static_cast<uint32_t>(kTableMagicNumber & 0xffffffffu));
  PutFixed32(dst, static_cast<uint32_t>(kTableMagicNumber >> 32));
  assert(dst->size() == original_size + kEncodedLength);
}

Status Footer::DecodeFrom(Slice* input) {
  if (input->size() < kEncodedLength) {
    return Status::Corruption("footer too short");
  }
  const char* magic_ptr = input->data() + kEncodedLength - 8;
  const uint32_t magic_lo = DecodeFixed32(magic_ptr);
  const uint32_t magic_hi = DecodeFixed32(magic_ptr + 4);
  const uint64_t magic =
      (static_cast<uint64_t>(magic_hi) << 32) | magic_lo;
  if (magic != kTableMagicNumber) {
    return Status::Corruption("not an sstable (bad magic number)");
  }
  Status result = properties_handle_.DecodeFrom(input);
  if (result.ok()) {
    result = index_handle_.DecodeFrom(input);
  }
  return result;
}

uint64_t StoredBlockSize(const RandomAccessFile* file,
                         const BlockHandle& handle) {
  return handle.size() + kBlockTrailerSize +
         (file->block_authenticator() != nullptr ? crypto::kBlockAuthTagSize
                                                 : 0);
}

Status ReadStoredRetrying(const RandomAccessFile* file, uint64_t offset,
                          size_t n, bool retry_short, char* scratch,
                          Slice* result) {
  // Positional reads are idempotent, so transient device errors and
  // short reads (both injected by FaultInjectionEnv and plausible on a
  // lossy disaggregated fabric) get a small bounded retry before being
  // escalated.
  constexpr int kMaxAttempts = 5;
  for (int attempt = 1;; attempt++) {
    Status s = file->ReadStored(offset, n, result, scratch);
    if (s.ok() && (result->size() == n || !retry_short)) {
      return s;
    }
    if (attempt < kMaxAttempts && (s.ok() || s.IsTransient())) {
      SleepForMicros(100ull << attempt);
      continue;
    }
    return s;
  }
}

Status ReadBlock(RandomAccessFile* file, const ReadOptions& options,
                 const BlockHandle& handle, BlockContents* result,
                 const std::string& fname) {
  (void)options;
  result->data = Slice();
  result->heap_allocated = false;

  const size_t stored = static_cast<size_t>(StoredBlockSize(file, handle));
  char* buf = new char[stored];
  Slice contents;
  // A genuinely truncated file returns the same short result every
  // time and still fails as corruption.
  Status s = ReadStoredRetrying(file, handle.offset(), stored,
                                /*retry_short=*/true, buf, &contents);
  if (s.ok() && contents.size() != stored) {
    s = Status::Corruption(
        BlockErrorMessage("truncated block read", handle, fname));
  }
  if (!s.ok()) {
    delete[] buf;
    return s;
  }

  Slice payload;
  s = OpenBlock(file, handle, contents, buf, fname, &payload);
  if (!s.ok()) {
    delete[] buf;
    return s;
  }

  if (payload.data() != buf) {
    // A plaintext file returned a pointer into its own storage; leave
    // ownership with the file and drop our scratch.
    delete[] buf;
    result->heap_allocated = false;
  } else {
    result->heap_allocated = true;
  }
  result->data = payload;
  return Status::OK();
}

Status VerifyStoredBlock(const RandomAccessFile* file,
                         const BlockHandle& handle, const Slice& stored,
                         BlockContents* result, const std::string& fname) {
  result->data = Slice();
  result->heap_allocated = false;

  const size_t n = static_cast<size_t>(handle.size());
  if (stored.size() != StoredBlockSize(file, handle)) {
    return Status::Corruption(
        BlockErrorMessage("carved block span has wrong size", handle, fname));
  }
  // The span backing `stored` is transient (a coalesced fetch buffer);
  // the caller gets an owned copy of the payload.
  char* buf = new char[n + kBlockTrailerSize];
  Slice payload;
  Status s = OpenBlock(file, handle, stored, buf, fname, &payload);
  if (!s.ok()) {
    delete[] buf;
    return s;
  }
  if (payload.data() != buf) {
    memcpy(buf, payload.data(), n);
  }
  result->data = Slice(buf, n);
  result->heap_allocated = true;
  return Status::OK();
}

Status OpenStoredBlockInPlace(const RandomAccessFile* file,
                              const BlockHandle& handle, char* stored,
                              const std::string& fname, Slice* payload) {
  return OpenBlock(
      file, handle,
      Slice(stored, static_cast<size_t>(StoredBlockSize(file, handle))),
      stored, fname, payload);
}

std::string EncodeTableProperties(const TableProperties& props) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(props.size()));
  for (const auto& [key, value] : props) {
    PutLengthPrefixedSlice(&out, key);
    PutLengthPrefixedSlice(&out, value);
  }
  return out;
}

Status DecodeTableProperties(const Slice& data, TableProperties* props) {
  props->clear();
  Slice input = data;
  uint32_t count;
  if (!GetVarint32(&input, &count)) {
    return Status::Corruption("bad properties block");
  }
  for (uint32_t i = 0; i < count; i++) {
    Slice key, value;
    if (!GetLengthPrefixedSlice(&input, &key) ||
        !GetLengthPrefixedSlice(&input, &value)) {
      return Status::Corruption("truncated properties block");
    }
    (*props)[key.ToString()] = value.ToString();
  }
  return Status::OK();
}

}  // namespace shield
