#ifndef SHIELD_LSM_BLOCK_H_
#define SHIELD_LSM_BLOCK_H_

#include <cstddef>
#include <cstdint>

#include "lsm/cache.h"
#include "lsm/comparator.h"
#include "lsm/iterator.h"
#include "util/slice.h"

namespace shield {

/// An immutable, parsed key/value block read from an SST file.
class Block {
 public:
  /// Takes ownership of `data` (heap allocated) when `owned` is true.
  Block(const char* data, size_t size, bool owned);
  ~Block();

  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  size_t size() const { return size_; }
  /// The block's payload bytes.
  Slice data() const { return Slice(data_, size_); }

  Iterator* NewIterator(const Comparator* comparator);

 private:
  class Iter;

  uint32_t NumRestarts() const;

  const char* data_;
  size_t size_;
  uint32_t restart_offset_ = 0;
  bool owned_;
  bool malformed_ = false;
};

/// Inserts `block` into the block cache under `key`, charged its size.
/// The cache owns the block from here and deletes it once evicted and
/// released. Returns the referenced handle, as Cache::Insert does.
Cache::Handle* InsertCachedBlock(Cache* cache, const Slice& key,
                                 Block* block);

}  // namespace shield

#endif  // SHIELD_LSM_BLOCK_H_
