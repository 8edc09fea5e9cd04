#ifndef SHIELD_LSM_CACHE_H_
#define SHIELD_LSM_CACHE_H_

#include <cstdint>
#include <memory>

#include "util/slice.h"

namespace shield {

/// A sharded LRU cache with reference-counted handles (LevelDB Cache
/// interface). Used for decrypted data blocks and open table readers.
/// Thread safe.
class Cache {
 public:
  Cache() = default;
  virtual ~Cache() = default;

  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  struct Handle {};

  /// Eviction priority. Under capacity pressure, low-priority entries
  /// (bulk data blocks) are reclaimed before high-priority ones (hot
  /// metadata such as index/filter charges) regardless of recency, so
  /// a scan's block churn cannot push table metadata out to the fabric.
  enum class Priority { kLow, kHigh };

  /// Inserts key->value with the given charge (a cache that charges
  /// metadata adds its own per-entry bookkeeping overhead on top — see
  /// TotalCharge()). The returned handle is referenced; callers must
  /// Release() it.
  /// `deleter` runs when the entry is evicted and unreferenced.
  virtual Handle* Insert(const Slice& key, void* value, size_t charge,
                         void (*deleter)(const Slice& key, void* value),
                         Priority priority = Priority::kLow) = 0;

  /// Returns a referenced handle or nullptr.
  virtual Handle* Lookup(const Slice& key) = 0;

  virtual void Release(Handle* handle) = 0;
  virtual void* Value(Handle* handle) = 0;
  /// Drops `key`'s entry, if any; a referenced entry lives on until
  /// released but no longer counts in TotalCharge(). Returns whether
  /// the key was cached.
  virtual bool Erase(const Slice& key) = 0;

  /// Total accounted to resident entries: caller-supplied charges plus,
  /// when metadata is charged, the cache's own per-entry overhead
  /// (handle struct, key copies, hash-table node). Stays <= the
  /// configured capacity whenever no handles are outstanding
  /// (referenced entries cannot be evicted, so pinning can push usage
  /// above capacity until release).
  virtual size_t TotalCharge() const = 0;
};

/// A cache of `capacity` units. With `charge_metadata` (a byte budget)
/// every entry also costs the cache's own bookkeeping bytes; without it
/// an entry costs exactly its charge, so a cache whose entries each
/// charge 1 holds `capacity` entries.
std::shared_ptr<Cache> NewLRUCache(size_t capacity,
                                   bool charge_metadata = true);

}  // namespace shield

#endif  // SHIELD_LSM_CACHE_H_
