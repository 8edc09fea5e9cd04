#ifndef SHIELD_LSM_WRITE_BATCH_H_
#define SHIELD_LSM_WRITE_BATCH_H_

#include <string>

#include "lsm/format.h"
#include "util/slice.h"
#include "util/status.h"

namespace shield {

class MemTable;

/// A batch of updates applied atomically. Wire format (also the WAL
/// record payload):
///   fixed64 sequence | fixed32 count | records
///   record := kTypeValue varstring varstring | kTypeDeletion varstring
class WriteBatch {
 public:
  WriteBatch();

  void Put(const Slice& key, const Slice& value);
  void Delete(const Slice& key);
  void Clear();

  /// Bytes of the underlying representation.
  size_t ApproximateSize() const { return rep_.size(); }
  int Count() const;

  /// Callback interface for Iterate().
  class Handler {
   public:
    virtual ~Handler() = default;
    virtual void Put(const Slice& key, const Slice& value) = 0;
    virtual void Delete(const Slice& key) = 0;
  };
  Status Iterate(Handler* handler) const;

  // --- Internal helpers (used by the DB implementation) ---
  SequenceNumber Sequence() const;
  void SetSequence(SequenceNumber seq);
  Slice Contents() const { return rep_; }
  void SetContents(const Slice& contents) {
    rep_.assign(contents.data(), contents.size());
  }
  /// Appends the records of `src` onto this batch (count updated).
  void Append(const WriteBatch& src);
  /// Applies the batch into a memtable with its own sequence numbers.
  Status InsertInto(MemTable* memtable) const;
  /// Dry-run structural validation: walks the records exactly like
  /// Iterate() without touching a memtable. Verification depends only
  /// on the rep bytes, so an OK batch cannot fail a later insert —
  /// this is what makes group application all-or-nothing (a malformed
  /// batch is rejected before it reaches the WAL or the memtable).
  Status Verify() const;

 private:
  void SetCount(int n);

  std::string rep_;
};

}  // namespace shield

#endif  // SHIELD_LSM_WRITE_BATCH_H_
