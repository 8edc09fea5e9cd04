#ifndef SHIELD_LSM_SST_READER_H_
#define SHIELD_LSM_SST_READER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "env/env.h"
#include "lsm/cache.h"
#include "lsm/filter_block.h"
#include "lsm/format.h"
#include "lsm/iterator.h"
#include "lsm/options.h"
#include "lsm/table_format.h"

namespace shield {

class Block;

/// One key of a batched point lookup against a single table. The
/// callback contract matches Table::InternalGet; `status` receives
/// this key's outcome (a block-level failure poisons only the
/// requests that needed that block).
struct TableGetRequest {
  Slice internal_key;
  void* arg = nullptr;
  void (*handle_result)(void*, const Slice&, const Slice&) = nullptr;
  Status status;
};

/// An open, immutable SST file. Thread safe after Open.
class Table {
 public:
  /// Opens a table over `file` (logical, i.e. already-decrypted view)
  /// whose logical length is `file_size`. On success takes ownership
  /// of the file. `fname` is used only to name the file in corruption
  /// errors.
  ///
  /// `tail_size` is the file's FileMetaData::tail_size. The last
  /// `tail_size` bytes (filter, properties, index, footer) are fetched
  /// with one read and each block is carved from that span and
  /// verified; a block outside the span, or one whose carved copy
  /// fails verification, is read singly. 0 (unknown) fetches just the
  /// footer.
  static Status Open(const Options& options, const InternalKeyComparator* icmp,
                     const std::string& fname,
                     std::unique_ptr<RandomAccessFile> file,
                     uint64_t file_size, uint64_t tail_size,
                     BlockCacheRef block_cache,
                     std::unique_ptr<Table>* table);

  ~Table();

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  /// Iterator over internal keys (caller deletes; must not outlive the
  /// table).
  Iterator* NewIterator(const ReadOptions& options) const;

  /// Seeks internal_key and invokes handle_result(arg, key, value) on
  /// the first entry at or after it, if any.
  Status InternalGet(const ReadOptions& options, const Slice& internal_key,
                     void* arg,
                     void (*handle_result)(void*, const Slice&, const Slice&));

  /// Batched InternalGet: requests must be sorted by internal key.
  /// Shares one index probe pass, dedupes block handles across keys,
  /// and fetches adjacent uncached blocks as one coalesced span — a
  /// single storage round trip — carving and verifying each block from
  /// the span (table_format.h VerifyStoredBlock). Any span-level
  /// failure (short read, fault, carve mismatch) degrades that group
  /// to ordinary per-block reads, so results are bit-identical to N
  /// sequential InternalGets. Per-key outcomes land in each request's
  /// `status`.
  void MultiGet(const ReadOptions& options,
                const std::vector<TableGetRequest*>& requests);

  const TableProperties& properties() const { return properties_; }

  /// For a dead table: erases from the block cache every data block
  /// its index names, and the charge of its pinned metadata. Returns
  /// the blocks that were cached.
  uint64_t EraseCachedBlocks() const;

  /// The file's tail size as its meta block handles place it: what
  /// TableBuilder::TailSize() reported when the file was written.
  uint64_t tail_size() const { return tail_size_; }

  /// Re-reads every block referenced by the index (bypassing the block
  /// cache) and verifies its CRC and, on authenticated files, its MAC
  /// tag. Returns the first Corruption encountered. `on_block`, when
  /// set, receives the stored size of each verified block (used by the
  /// scrubber for rate limiting).
  Status VerifyBlocks(const std::function<void(uint64_t)>& on_block) const;

  /// Best-effort extraction for local repair: iterates every entry of
  /// every *readable* data block in key order, skipping blocks that
  /// fail CRC/tag verification, and counts skipped blocks into
  /// `*dropped_blocks`. Entries in corrupt blocks are lost (their raw
  /// bytes survive in the quarantine copy).
  Status SalvageEntries(
      const std::function<void(const Slice&, const Slice&)>& fn,
      uint64_t* dropped_blocks) const;

 private:
  Table() = default;

  /// `file` lets iterator paths substitute a readahead-wrapped view of
  /// file_; all verification behaviour is identical.
  Iterator* BlockReader(const ReadOptions& options, const Slice& index_value,
                        RandomAccessFile* file) const;

  Options options_;
  const InternalKeyComparator* icmp_ = nullptr;
  std::string fname_;
  std::unique_ptr<RandomAccessFile> file_;
  std::unique_ptr<Block> index_block_;
  TableProperties properties_;
  uint64_t tail_size_ = 0;
  std::shared_ptr<Cache> block_cache_;
  uint64_t file_number_ = 0;

  // The tail span read at open, kept only while the index block or the
  // filter was carved from it and points into it; a block read singly
  // has its own storage (the index block owns it, filter_space_ the
  // filter's).
  std::unique_ptr<char[]> tail_;
  std::unique_ptr<char[]> filter_space_;

  // Bloom-filter support (present when the table was built with a
  // filter policy matching options_.filter_policy).
  std::unique_ptr<FilterBlockReader> filter_;

  // Index and filter blocks are pinned in memory for the table's
  // lifetime (they are members above). This referenced high-priority
  // cache entry charges their footprint against the block-cache
  // budget so pinned metadata is accounted, not free; released in
  // ~Table.
  Cache::Handle* metadata_pin_ = nullptr;
};

}  // namespace shield

#endif  // SHIELD_LSM_SST_READER_H_
