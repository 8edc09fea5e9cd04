#ifndef SHIELD_LSM_TABLE_CACHE_H_
#define SHIELD_LSM_TABLE_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "lsm/cache.h"
#include "lsm/iterator.h"
#include "lsm/options.h"
#include "lsm/sst_reader.h"
#include "lsm/version_edit.h"
#include "shield/file_crypto.h"

namespace shield {

/// Caches open Table readers keyed by file number. Opening an SST is
/// expensive (a read of its tail, verifying and decrypting the index,
/// properties and filter, and under SHIELD a DEK resolution), so
/// readers are shared across threads and kept hot: up to
/// `max_open_tables` of them, however large. Every call names the file
/// by its metadata: number, size and the tail size Table::Open reads
/// with.
class TableCache {
 public:
  TableCache(std::string dbname, const Options& options,
             const InternalKeyComparator* icmp, DataFileFactory* files,
             std::shared_ptr<Cache> block_cache, int max_open_tables);
  ~TableCache();

  /// Iterator over internal keys of the given file. If `tableptr` is
  /// non-null, also returns the underlying Table (owned by the cache,
  /// valid while the iterator lives).
  Iterator* NewIterator(const ReadOptions& options, const FileMetaData& file,
                        Table** tableptr = nullptr);

  Status Get(const ReadOptions& options, const FileMetaData& file,
             const Slice& internal_key, void* arg,
             void (*handle_result)(void*, const Slice&, const Slice&));

  /// Batched Get against one file: requests (sorted by internal key)
  /// are answered by Table::MultiGet, which coalesces block fetches.
  /// A failure to open the table poisons every request's status.
  void MultiGet(const ReadOptions& options, const FileMetaData& file,
                const std::vector<TableGetRequest*>& requests);

  /// Opens `file`'s reader into the cache ahead of its first read: a
  /// lookup like any other, so it ticks a hit or a miss. A flush opens
  /// its table this way before publishing it.
  Status OpenTable(const FileMetaData& file);

  /// Drops the cached reader of a file that lives on under its number
  /// (say, repaired in place): its blocks stay cached.
  void Evict(uint64_t file_number);

  /// Drops the cached reader of a dead file, after erasing from the
  /// block cache every block its index names (Table::EraseCachedBlocks).
  /// Ticks lsm.block.cache.dead.erases. A file with no open reader
  /// leaves whatever blocks it has to age out.
  void EraseDeadTable(uint64_t file_number);

 private:
  /// Looks the table up, opening it on a miss; ticks
  /// lsm.table.cache.hit or lsm.table.cache.miss.
  Status FindTable(const FileMetaData& file, Cache::Handle** handle);

  const std::string dbname_;
  const Options options_;
  const InternalKeyComparator* icmp_;
  DataFileFactory* files_;
  std::shared_ptr<Cache> block_cache_;
  std::shared_ptr<Cache> cache_;
};

}  // namespace shield

#endif  // SHIELD_LSM_TABLE_CACHE_H_
