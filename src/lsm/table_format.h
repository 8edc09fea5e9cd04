#ifndef SHIELD_LSM_TABLE_FORMAT_H_
#define SHIELD_LSM_TABLE_FORMAT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "env/env.h"
#include "lsm/cache.h"
#include "lsm/options.h"
#include "util/coding.h"
#include "util/slice.h"
#include "util/status.h"

namespace shield {

/// Location of a block within an SST file.
class BlockHandle {
 public:
  static constexpr uint64_t kMaxEncodedLength = 10 + 10;

  uint64_t offset() const { return offset_; }
  void set_offset(uint64_t offset) { offset_ = offset; }
  uint64_t size() const { return size_; }
  void set_size(uint64_t size) { size_ = size; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);

 private:
  uint64_t offset_ = 0;
  uint64_t size_ = 0;
};

/// Fixed-size footer at the end of every SST file:
///   properties_handle | index_handle | padding | magic(8)
class Footer {
 public:
  static constexpr size_t kEncodedLength =
      2 * BlockHandle::kMaxEncodedLength + 8;

  const BlockHandle& properties_handle() const { return properties_handle_; }
  void set_properties_handle(const BlockHandle& h) { properties_handle_ = h; }
  const BlockHandle& index_handle() const { return index_handle_; }
  void set_index_handle(const BlockHandle& h) { index_handle_ = h; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);

 private:
  BlockHandle properties_handle_;
  BlockHandle index_handle_;
};

static constexpr uint64_t kTableMagicNumber = 0x5348494c44535354ull;  // "SHILDSST"

/// Per-block trailer: 1-byte type (0 = raw) + 4-byte masked crc32c.
static constexpr size_t kBlockTrailerSize = 5;

/// The block cache's key for the block at `offset` of table
/// `file_number`: both as fixed64, 16 bytes. The reader, a flush's
/// write-through and the erase of a dead table's blocks all build
/// their keys here, so they agree on one layout.
class BlockCacheKey {
 public:
  BlockCacheKey(uint64_t file_number, uint64_t offset) {
    EncodeFixed64(data_, file_number);
    EncodeFixed64(data_ + 8, offset);
  }
  Slice slice() const { return Slice(data_, sizeof(data_)); }

 private:
  char data_[16];
};

/// The offset an open table charges its pinned metadata under: no
/// block lives there.
inline constexpr uint64_t kMetadataPinOffset = UINT64_MAX;

/// The block cache a table's blocks go through: `cache` (none when
/// null), keyed by BlockCacheKey(file_number, offset). A table evicted
/// from the table cache and opened again finds its blocks still cached.
/// The cache must see each number name one file only, which holds for
/// the block cache a DB owns: a DB never reuses a file number while
/// open.
struct BlockCacheRef {
  std::shared_ptr<Cache> cache;
  uint64_t file_number = 0;
};

struct BlockContents {
  Slice data;
  bool heap_allocated = false;  // caller must delete[] data.data()
};

/// Bytes a block takes in `file`: payload, trailer and, on an
/// authenticated file (header format v2 or v3), the tag. Whether the tag is
/// there is a per-file property, never guessed from content.
uint64_t StoredBlockSize(const RandomAccessFile* file,
                         const BlockHandle& handle);

/// Reads [offset, offset + n) of `file`'s stored image with a bounded
/// retry: a transient error is retried, and so is a short read when
/// `retry_short`; otherwise the genuine prefix a short read returned is
/// the result. After the last attempt a short result is returned with
/// OK status, so the caller decides what a short read means.
Status ReadStoredRetrying(const RandomAccessFile* file, uint64_t offset,
                          size_t n, bool retry_short, char* scratch,
                          Slice* result);

/// Reads and verifies one block (payload + trailer, plus the
/// authentication tag when the file carries one) from a file. The
/// stored bytes are read with ReadStored; on an authenticated file the
/// tag over them is checked before anything is decrypted, then payload
/// and trailer are decrypted once (RandomAccessFile::Unseal) and the
/// CRC is checked on the plaintext. Both checks always run; a mismatch
/// returns Corruption naming `fname` and the block offset. `fname` is
/// used only for error messages.
Status ReadBlock(RandomAccessFile* file, const ReadOptions& options,
                 const BlockHandle& handle, BlockContents* result,
                 const std::string& fname = std::string());

/// Verifies a block's stored image that is already in memory —
/// `stored` must be exactly handle.size() + kBlockTrailerSize +
/// (tag bytes if `file` has a block_authenticator()) bytes carved out
/// of a span `file` returned from ReadStored (a coalesced MultiGet
/// fetch). Checks the tag, decrypts and checks the CRC exactly as
/// ReadBlock does, and on success leaves the payload in a fresh heap
/// allocation in `result`. Never trusts unverified bytes.
Status VerifyStoredBlock(const RandomAccessFile* file,
                         const BlockHandle& handle, const Slice& stored,
                         BlockContents* result,
                         const std::string& fname = std::string());

/// VerifyStoredBlock in place: `stored` points at the block's stored
/// image (StoredBlockSize(file, handle) bytes) in memory the caller owns
/// and lets this overwrite. The same checks run; on success `*payload`
/// is the block's payload, decrypted into those bytes. Table::Open uses
/// it to keep meta blocks in the tail span they were read in.
Status OpenStoredBlockInPlace(const RandomAccessFile* file,
                              const BlockHandle& handle, char* stored,
                              const std::string& fname, Slice* payload);

/// Table properties: free-form string key/values persisted in the
/// properties block. SHIELD stores the DEK-ID and cipher here as well,
/// making the DEK resolvable from the file alone (Section 5.4). Note
/// the SST payload is encrypted underneath this layer, so on disk these
/// properties are only plaintext inside the dedicated 64-byte file
/// header, not in the properties block.
using TableProperties = std::map<std::string, std::string>;

std::string EncodeTableProperties(const TableProperties& props);
Status DecodeTableProperties(const Slice& data, TableProperties* props);

// Well-known property keys.
inline constexpr char kPropNumEntries[] = "shield.num-entries";
inline constexpr char kPropRawKeyBytes[] = "shield.raw-key-bytes";
inline constexpr char kPropRawValueBytes[] = "shield.raw-value-bytes";
inline constexpr char kPropDekId[] = "shield.dek-id";
inline constexpr char kPropCipher[] = "shield.cipher";
inline constexpr char kPropFilterHandle[] = "shield.filter-handle";
inline constexpr char kPropFilterPolicy[] = "shield.filter-policy";

}  // namespace shield

#endif  // SHIELD_LSM_TABLE_FORMAT_H_
