#include "lsm/write_batch.h"

#include "lsm/memtable.h"
#include "util/coding.h"

namespace shield {

namespace {
// sequence(8) + count(4)
constexpr size_t kHeader = 12;
}  // namespace

WriteBatch::WriteBatch() { Clear(); }

void WriteBatch::Clear() {
  rep_.clear();
  rep_.resize(kHeader);
}

int WriteBatch::Count() const {
  return static_cast<int>(DecodeFixed32(rep_.data() + 8));
}

void WriteBatch::SetCount(int n) {
  EncodeFixed32(rep_.data() + 8, static_cast<uint32_t>(n));
}

SequenceNumber WriteBatch::Sequence() const {
  return DecodeFixed64(rep_.data());
}

void WriteBatch::SetSequence(SequenceNumber seq) {
  EncodeFixed64(rep_.data(), seq);
}

void WriteBatch::Put(const Slice& key, const Slice& value) {
  SetCount(Count() + 1);
  rep_.push_back(static_cast<char>(kTypeValue));
  PutLengthPrefixedSlice(&rep_, key);
  PutLengthPrefixedSlice(&rep_, value);
}

void WriteBatch::Delete(const Slice& key) {
  SetCount(Count() + 1);
  rep_.push_back(static_cast<char>(kTypeDeletion));
  PutLengthPrefixedSlice(&rep_, key);
}

Status WriteBatch::Iterate(Handler* handler) const {
  Slice input(rep_);
  if (input.size() < kHeader) {
    return Status::Corruption("malformed WriteBatch (too small)");
  }
  input.remove_prefix(kHeader);
  Slice key, value;
  int found = 0;
  while (!input.empty()) {
    found++;
    const char tag = input[0];
    input.remove_prefix(1);
    switch (tag) {
      case kTypeValue:
        if (GetLengthPrefixedSlice(&input, &key) &&
            GetLengthPrefixedSlice(&input, &value)) {
          handler->Put(key, value);
        } else {
          return Status::Corruption("bad WriteBatch Put");
        }
        break;
      case kTypeDeletion:
        if (GetLengthPrefixedSlice(&input, &key)) {
          handler->Delete(key);
        } else {
          return Status::Corruption("bad WriteBatch Delete");
        }
        break;
      default:
        return Status::Corruption("unknown WriteBatch tag");
    }
  }
  if (found != Count()) {
    return Status::Corruption("WriteBatch has wrong count");
  }
  return Status::OK();
}

void WriteBatch::Append(const WriteBatch& src) {
  SetCount(Count() + src.Count());
  rep_.append(src.rep_.data() + kHeader, src.rep_.size() - kHeader);
}

namespace {

class MemTableInserter final : public WriteBatch::Handler {
 public:
  SequenceNumber sequence;
  MemTable* mem;

  void Put(const Slice& key, const Slice& value) override {
    mem->Add(sequence, kTypeValue, key, value);
    sequence++;
  }
  void Delete(const Slice& key) override {
    mem->Add(sequence, kTypeDeletion, key, Slice());
    sequence++;
  }
};

class NoopHandler final : public WriteBatch::Handler {
 public:
  void Put(const Slice& key, const Slice& value) override {
    (void)key;
    (void)value;
  }
  void Delete(const Slice& key) override { (void)key; }
};

}  // namespace

Status WriteBatch::InsertInto(MemTable* memtable) const {
  MemTableInserter inserter;
  inserter.sequence = Sequence();
  inserter.mem = memtable;
  return Iterate(&inserter);
}

Status WriteBatch::Verify() const {
  NoopHandler handler;
  return Iterate(&handler);
}

}  // namespace shield
