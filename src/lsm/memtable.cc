#include "lsm/memtable.h"

#include "util/coding.h"

namespace shield {

namespace {

Slice GetLengthPrefixedSliceAt(const char* data) {
  uint32_t len;
  const char* p = GetVarint32Ptr(data, data + 5, &len);
  return Slice(p, len);
}

// Encodes an internal-key slice into the memtable key format in *scratch.
const char* EncodeKey(std::string* scratch, const Slice& target) {
  scratch->clear();
  PutVarint32(scratch, static_cast<uint32_t>(target.size()));
  scratch->append(target.data(), target.size());
  return scratch->data();
}

}  // namespace

MemTable::MemTable(const InternalKeyComparator& comparator)
    : comparator_(comparator), table_(comparator_, &arena_) {}

int MemTable::KeyComparator::operator()(const char* aptr,
                                        const char* bptr) const {
  const Slice a = GetLengthPrefixedSliceAt(aptr);
  const Slice b = GetLengthPrefixedSliceAt(bptr);
  return comparator.Compare(a, b);
}

size_t MemTable::ApproximateMemoryUsage() { return arena_.MemoryUsage(); }

uint64_t MemTable::NumEntries() const {
  return num_entries_.load(std::memory_order_relaxed);
}

class MemTableIterator final : public Iterator {
 public:
  explicit MemTableIterator(MemTable::Table* table) : iter_(table) {}

  bool Valid() const override { return iter_.Valid(); }
  void Seek(const Slice& k) override { iter_.Seek(EncodeKey(&tmp_, k)); }
  void SeekToFirst() override { iter_.SeekToFirst(); }
  void SeekToLast() override { iter_.SeekToLast(); }
  void Next() override { iter_.Next(); }
  void Prev() override { iter_.Prev(); }
  Slice key() const override { return GetLengthPrefixedSliceAt(iter_.key()); }
  Slice value() const override {
    const Slice key_slice = GetLengthPrefixedSliceAt(iter_.key());
    return GetLengthPrefixedSliceAt(key_slice.data() + key_slice.size());
  }
  Status status() const override { return Status::OK(); }

 private:
  MemTable::Table::Iterator iter_;
  std::string tmp_;
};

Iterator* MemTable::NewIterator() { return new MemTableIterator(&table_); }

void MemTable::Add(SequenceNumber seq, ValueType type, const Slice& key,
                   const Slice& value) {
  const size_t key_size = key.size();
  const size_t val_size = value.size();
  const size_t internal_key_size = key_size + 8;
  const size_t encoded_len = VarintLength(internal_key_size) +
                             internal_key_size + VarintLength(val_size) +
                             val_size;
  char* buf = arena_.Allocate(encoded_len);
  char* p = EncodeVarint32(buf, static_cast<uint32_t>(internal_key_size));
  memcpy(p, key.data(), key_size);
  p += key_size;
  EncodeFixed64(p, PackSequenceAndType(seq, type));
  p += 8;
  p = EncodeVarint32(p, static_cast<uint32_t>(val_size));
  memcpy(p, value.data(), val_size);
  assert(p + val_size == buf + encoded_len);
  table_.Insert(buf);
  num_entries_.fetch_add(1, std::memory_order_relaxed);
}

bool MemTable::Get(const LookupKey& key, std::string* value, Status* s) {
  const Slice memkey = key.memtable_key();
  Table::Iterator iter(&table_);
  iter.Seek(memkey.data());
  if (!iter.Valid()) {
    return false;
  }
  // The entry we found is the first with internal key >= lookup key.
  // Check that the user key matches.
  const char* entry = iter.key();
  uint32_t key_length;
  const char* key_ptr = GetVarint32Ptr(entry, entry + 5, &key_length);
  const Slice found_user_key(key_ptr, key_length - 8);
  if (comparator_.comparator.user_comparator()->Compare(
          found_user_key, key.user_key()) == 0) {
    const uint64_t tag = DecodeFixed64(key_ptr + key_length - 8);
    switch (static_cast<ValueType>(tag & 0xff)) {
      case kTypeValue: {
        const Slice v = GetLengthPrefixedSliceAt(key_ptr + key_length);
        value->assign(v.data(), v.size());
        *s = Status::OK();
        return true;
      }
      case kTypeDeletion:
        *s = Status::NotFound("");
        return true;
    }
  }
  return false;
}

}  // namespace shield
