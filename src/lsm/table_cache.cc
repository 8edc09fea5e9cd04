#include "lsm/table_cache.h"

#include "lsm/file_names.h"
#include "util/coding.h"
#include "util/statistics.h"

namespace shield {

namespace {

void DeleteTableEntry(const Slice& /*key*/, void* value) {
  delete reinterpret_cast<Table*>(value);
}

}  // namespace

TableCache::TableCache(std::string dbname, const Options& options,
                       const InternalKeyComparator* icmp,
                       DataFileFactory* files,
                       std::shared_ptr<Cache> block_cache,
                       int max_open_tables)
    : dbname_(std::move(dbname)),
      options_(options),
      icmp_(icmp),
      files_(files),
      block_cache_(std::move(block_cache)),
      // Counted in tables: each entry charges 1 and nothing more.
      cache_(NewLRUCache(static_cast<size_t>(max_open_tables),
                         /*charge_metadata=*/false)) {}

TableCache::~TableCache() = default;

Status TableCache::FindTable(const FileMetaData& file,
                             Cache::Handle** handle) {
  char buf[sizeof(file.number)];
  EncodeFixed64(buf, file.number);
  const Slice key(buf, sizeof(buf));
  *handle = cache_->Lookup(key);
  Statistics* stats = options_.statistics.get();
  if (*handle != nullptr) {
    RecordTick(stats, Tickers::kLsmTableCacheHit);
    return Status::OK();
  }
  RecordTick(stats, Tickers::kLsmTableCacheMiss);

  const std::string fname = TableFileName(dbname_, file.number);
  std::unique_ptr<RandomAccessFile> reader;
  Status s = files_->NewRandomAccessFile(fname, &reader);
  if (!s.ok()) {
    return s;
  }
  std::unique_ptr<Table> table;
  s = Table::Open(options_, icmp_, fname, std::move(reader), file.file_size,
                  file.tail_size, {block_cache_, file.number}, &table);
  if (!s.ok()) {
    return s;
  }
  *handle = cache_->Insert(key, table.release(), 1, &DeleteTableEntry);
  return Status::OK();
}

Iterator* TableCache::NewIterator(const ReadOptions& options,
                                  const FileMetaData& file,
                                  Table** tableptr) {
  if (tableptr != nullptr) {
    *tableptr = nullptr;
  }

  Cache::Handle* handle = nullptr;
  Status s = FindTable(file, &handle);
  if (!s.ok()) {
    return NewErrorIterator(s);
  }

  Table* table = reinterpret_cast<Table*>(cache_->Value(handle));
  Iterator* result = table->NewIterator(options);

  // Tie the cache handle's lifetime to the iterator via a wrapper.
  class HandleReleasingIterator final : public Iterator {
   public:
    HandleReleasingIterator(Iterator* iter, Cache* cache,
                            Cache::Handle* handle)
        : iter_(iter), cache_(cache), handle_(handle) {}
    ~HandleReleasingIterator() override {
      delete iter_;
      cache_->Release(handle_);
    }
    bool Valid() const override { return iter_->Valid(); }
    void Seek(const Slice& t) override { iter_->Seek(t); }
    void SeekToFirst() override { iter_->SeekToFirst(); }
    void SeekToLast() override { iter_->SeekToLast(); }
    void Next() override { iter_->Next(); }
    void Prev() override { iter_->Prev(); }
    Slice key() const override { return iter_->key(); }
    Slice value() const override { return iter_->value(); }
    Status status() const override { return iter_->status(); }

   private:
    Iterator* iter_;
    Cache* cache_;
    Cache::Handle* handle_;
  };

  if (tableptr != nullptr) {
    *tableptr = table;
  }
  return new HandleReleasingIterator(result, cache_.get(), handle);
}

Status TableCache::Get(const ReadOptions& options, const FileMetaData& file,
                       const Slice& internal_key, void* arg,
                       void (*handle_result)(void*, const Slice&,
                                             const Slice&)) {
  Cache::Handle* handle = nullptr;
  Status s = FindTable(file, &handle);
  if (!s.ok()) {
    return s;
  }
  Table* table = reinterpret_cast<Table*>(cache_->Value(handle));
  s = table->InternalGet(options, internal_key, arg, handle_result);
  cache_->Release(handle);
  return s;
}

void TableCache::MultiGet(const ReadOptions& options,
                          const FileMetaData& file,
                          const std::vector<TableGetRequest*>& requests) {
  Cache::Handle* handle = nullptr;
  Status s = FindTable(file, &handle);
  if (!s.ok()) {
    for (TableGetRequest* req : requests) {
      req->status = s;
    }
    return;
  }
  Table* table = reinterpret_cast<Table*>(cache_->Value(handle));
  table->MultiGet(options, requests);
  cache_->Release(handle);
}

Status TableCache::OpenTable(const FileMetaData& file) {
  Cache::Handle* handle = nullptr;
  Status s = FindTable(file, &handle);
  if (s.ok()) {
    cache_->Release(handle);
  }
  return s;
}

void TableCache::Evict(uint64_t file_number) {
  char buf[sizeof(file_number)];
  EncodeFixed64(buf, file_number);
  cache_->Erase(Slice(buf, sizeof(buf)));
}

void TableCache::EraseDeadTable(uint64_t file_number) {
  char buf[sizeof(file_number)];
  EncodeFixed64(buf, file_number);
  const Slice key(buf, sizeof(buf));
  Cache::Handle* handle = cache_->Lookup(key);
  if (handle == nullptr) {
    return;
  }
  const uint64_t erased =
      reinterpret_cast<Table*>(cache_->Value(handle))->EraseCachedBlocks();
  cache_->Release(handle);
  cache_->Erase(key);
  RecordTick(options_.statistics.get(), Tickers::kLsmBlockCacheDeadErases,
             erased);
}

}  // namespace shield
