#ifndef SHIELD_LSM_MEMTABLE_H_
#define SHIELD_LSM_MEMTABLE_H_

#include <atomic>
#include <string>

#include "lsm/format.h"
#include "lsm/iterator.h"
#include "lsm/skiplist.h"
#include "util/arena.h"

namespace shield {

/// The in-memory self-sorting write buffer: one arena-backed skiplist
/// of internal-key entries. One thread inserts at a time (the
/// group-commit leader); readers run lock-free alongside it.
///
/// Reference counted because readers (Get, iterators) can hold an
/// immutable memtable after it has been swapped out for flushing.
///
/// Entry format in the arena:
///   varint32 internal_key_len | user_key | fixed64(seq|type) |
///   varint32 value_len | value
class MemTable {
 public:
  explicit MemTable(const InternalKeyComparator& comparator);

  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  void Ref() { ++refs_; }
  void Unref() {
    --refs_;
    assert(refs_ >= 0);
    if (refs_ <= 0) {
      delete this;
    }
  }

  size_t ApproximateMemoryUsage();

  /// Number of entries added. 0 means nothing to flush.
  uint64_t NumEntries() const;

  /// Iterator over internal keys (caller deletes).
  Iterator* NewIterator();

  /// REQUIRES: no other thread is adding concurrently.
  void Add(SequenceNumber seq, ValueType type, const Slice& key,
           const Slice& value);

  /// If the memtable contains the newest entry for key at or below the
  /// lookup sequence: returns true with *s OK and *value set (Put), or
  /// *s NotFound (Delete tombstone). Returns false when the key is not
  /// present at all.
  bool Get(const LookupKey& key, std::string* value, Status* s);

 private:
  friend class MemTableIterator;

  struct KeyComparator {
    const InternalKeyComparator comparator;
    explicit KeyComparator(const InternalKeyComparator& c) : comparator(c) {}
    int operator()(const char* a, const char* b) const;
  };

  using Table = SkipList<const char*, KeyComparator>;

  ~MemTable() = default;  // only via Unref()

  KeyComparator comparator_;
  int refs_ = 0;
  Arena arena_;
  Table table_;
  // Atomic because Flush() reads it under the DB mutex while the
  // group-commit leader inserts without it.
  std::atomic<uint64_t> num_entries_{0};
};

}  // namespace shield

#endif  // SHIELD_LSM_MEMTABLE_H_
