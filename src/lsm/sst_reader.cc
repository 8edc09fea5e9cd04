#include "lsm/sst_reader.h"

#include <algorithm>

#include "crypto/block_auth.h"
#include "env/readahead_file.h"
#include "lsm/block.h"
#include "lsm/two_level_iterator.h"
#include "util/clock.h"
#include "util/coding.h"
#include "util/perf_context.h"
#include "util/statistics.h"

namespace shield {

namespace {

// Coalescing policy for MultiGet block fetches: adjacent uncached
// blocks merge into one span read when the dead bytes between them
// are small relative to a round trip, up to a bounded span so one
// batch cannot balloon memory.
constexpr uint64_t kMaxCoalesceGapBytes = 16 * 1024;
constexpr uint64_t kMaxCoalesceSpanBytes = 1024 * 1024;

void DeleteCachedBlock(const Slice& /*key*/, void* value) {
  delete reinterpret_cast<Block*>(value);
}

void DeleteNothing(const Slice& /*key*/, void* /*value*/) {}

void ReleaseBlockHandle(void* arg1, void* arg2) {
  Cache* cache = reinterpret_cast<Cache*>(arg1);
  Cache::Handle* handle = reinterpret_cast<Cache::Handle*>(arg2);
  cache->Release(handle);
}

// An iterator wrapper that releases a cache handle (or deletes an
// owned block) when destroyed.
class BlockIterCleanup final : public Iterator {
 public:
  BlockIterCleanup(Iterator* iter, Block* owned_block, Cache* cache,
                   Cache::Handle* handle)
      : iter_(iter), owned_block_(owned_block), cache_(cache),
        handle_(handle) {}

  ~BlockIterCleanup() override {
    delete iter_;
    if (handle_ != nullptr) {
      ReleaseBlockHandle(cache_, handle_);
    } else {
      delete owned_block_;
    }
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
  Block* owned_block_;
  Cache* cache_;
  Cache::Handle* handle_;
};

Status ReadBlockObject(RandomAccessFile* file, const ReadOptions& options,
                       const BlockHandle& handle, const std::string& fname,
                       Block** block) {
  BlockContents contents;
  Status s = ReadBlock(file, options, handle, &contents, fname);
  if (!s.ok()) {
    return s;
  }
  if (!contents.heap_allocated) {
    // The block must own stable storage (the cache may outlive the
    // read buffer); copy.
    char* buf = new char[contents.data.size()];
    memcpy(buf, contents.data.data(), contents.data.size());
    contents.data = Slice(buf, contents.data.size());
    contents.heap_allocated = true;
  }
  *block = new Block(contents.data.data(), contents.data.size(),
                     /*owned=*/true);
  return Status::OK();
}

// ReadBlockObject plus per-operation accounting: sst.read.micros
// histogram and the PerfContext block_read_* fields.
Status ReadBlockObjectCounted(RandomAccessFile* file,
                              const ReadOptions& options,
                              const BlockHandle& handle,
                              const std::string& fname, Statistics* stats,
                              Block** block) {
  Status s;
  {
    StopWatch watch(stats, Histograms::kSstReadMicros);
    PerfTimer timer(&GetPerfContext()->block_read_micros);
    s = ReadBlockObject(file, options, handle, fname, block);
  }
  if (s.ok()) {
    PerfAdd(&PerfContext::block_read_count, 1);
    PerfAdd(&PerfContext::block_read_bytes, (*block)->size());
  }
  return s;
}

}  // namespace

Status Table::Open(const Options& options, const InternalKeyComparator* icmp,
                   const std::string& fname,
                   std::unique_ptr<RandomAccessFile> file, uint64_t file_size,
                   std::shared_ptr<Cache> block_cache,
                   std::unique_ptr<Table>* table) {
  table->reset();
  if (file_size < Footer::kEncodedLength) {
    return Status::Corruption("file is too short to be an sstable", fname);
  }
  // Same bounded retry as ReadBlock: tables open lazily, so a single
  // transient or torn footer read must not condemn the whole file as
  // corrupt. A genuinely truncated file fails identically every time.
  char footer_space[Footer::kEncodedLength];
  Slice footer_input;
  Status s;
  constexpr int kMaxFooterAttempts = 5;
  for (int attempt = 1;; attempt++) {
    s = file->Read(file_size - Footer::kEncodedLength, Footer::kEncodedLength,
                   &footer_input, footer_space);
    if (s.ok() && footer_input.size() == Footer::kEncodedLength) {
      break;
    }
    if (attempt < kMaxFooterAttempts && (s.ok() || s.IsTransient())) {
      SleepForMicros(100ull << attempt);
      continue;
    }
    return s.ok() ? Status::Corruption("truncated footer read", fname) : s;
  }
  Footer footer;
  s = footer.DecodeFrom(&footer_input);
  if (!s.ok()) {
    return s;
  }

  // Index block.
  ReadOptions opt;
  Block* index_block = nullptr;
  s = ReadBlockObject(file.get(), opt, footer.index_handle(), fname,
                      &index_block);
  if (!s.ok()) {
    return s;
  }

  // Properties block.
  TableProperties props;
  BlockContents prop_contents;
  s = ReadBlock(file.get(), opt, footer.properties_handle(), &prop_contents,
                fname);
  if (s.ok()) {
    s = DecodeTableProperties(prop_contents.data, &props);
    if (prop_contents.heap_allocated) {
      delete[] prop_contents.data.data();
    }
  }
  if (!s.ok()) {
    delete index_block;
    return s;
  }

  std::unique_ptr<Table> t(new Table());
  t->options_ = options;
  t->icmp_ = icmp;
  t->fname_ = fname;
  t->file_ = std::move(file);
  t->index_block_.reset(index_block);
  t->properties_ = std::move(props);
  t->block_cache_ = std::move(block_cache);
  t->cache_id_ = t->block_cache_ ? t->block_cache_->NewId() : 0;

  // Attach the bloom filter when the table carries one built by the
  // same policy the reader is configured with.
  if (options.filter_policy != nullptr) {
    auto handle_it = t->properties_.find(kPropFilterHandle);
    auto name_it = t->properties_.find(kPropFilterPolicy);
    if (handle_it != t->properties_.end() &&
        name_it != t->properties_.end() &&
        name_it->second == options.filter_policy->Name()) {
      BlockHandle filter_handle;
      Slice handle_input(handle_it->second);
      if (filter_handle.DecodeFrom(&handle_input).ok()) {
        BlockContents filter_contents;
        if (ReadBlock(t->file_.get(), opt, filter_handle, &filter_contents,
                      fname)
                .ok()) {
          t->filter_data_.assign(filter_contents.data.data(),
                                 filter_contents.data.size());
          if (filter_contents.heap_allocated) {
            delete[] filter_contents.data.data();
          }
          t->filter_ = std::make_unique<FilterBlockReader>(
              options.filter_policy, t->filter_data_);
        }
      }
    }
  }

  // Charge the block cache for the pinned metadata this table keeps
  // resident (index block + bloom filter): a referenced high-priority
  // entry, so the footprint shows up in TotalCharge() and competes
  // with data blocks for budget, while the pin (the handle we hold)
  // guarantees the metadata itself is never evicted mid-life.
  if (t->block_cache_ != nullptr) {
    char pin_key[16];
    EncodeFixed64(pin_key, t->cache_id_);
    EncodeFixed64(pin_key + 8, UINT64_MAX);  // no block lives at this offset
    const size_t metadata_bytes =
        t->index_block_->size() + t->filter_data_.size();
    t->metadata_pin_ =
        t->block_cache_->Insert(Slice(pin_key, sizeof(pin_key)), nullptr,
                                metadata_bytes, &DeleteNothing,
                                Cache::Priority::kHigh);
  }

  *table = std::move(t);
  return Status::OK();
}

Table::~Table() {
  if (metadata_pin_ != nullptr) {
    block_cache_->Release(metadata_pin_);
  }
}

Iterator* Table::BlockReader(const ReadOptions& options,
                             const Slice& index_value,
                             RandomAccessFile* file) const {
  BlockHandle handle;
  Slice input = index_value;
  Status s = handle.DecodeFrom(&input);
  if (!s.ok()) {
    return NewErrorIterator(s);
  }

  Block* block = nullptr;
  Cache::Handle* cache_handle = nullptr;
  if (block_cache_ != nullptr) {
    char cache_key_buffer[16];
    EncodeFixed64(cache_key_buffer, cache_id_);
    EncodeFixed64(cache_key_buffer + 8, handle.offset());
    const Slice key(cache_key_buffer, sizeof(cache_key_buffer));
    cache_handle = block_cache_->Lookup(key);
    if (cache_handle != nullptr) {
      block = reinterpret_cast<Block*>(block_cache_->Value(cache_handle));
      RecordTick(options_.statistics.get(), Tickers::kLsmBlockCacheHit);
      PerfAdd(&PerfContext::block_cache_hit_count, 1);
    } else {
      RecordTick(options_.statistics.get(), Tickers::kLsmBlockCacheMiss);
      s = ReadBlockObjectCounted(file, options, handle, fname_,
                                 options_.statistics.get(), &block);
      if (s.ok() && options.fill_cache) {
        cache_handle = block_cache_->Insert(key, block, block->size(),
                                            &DeleteCachedBlock);
      }
    }
  } else {
    s = ReadBlockObjectCounted(file, options, handle, fname_,
                               options_.statistics.get(), &block);
  }

  if (!s.ok()) {
    return NewErrorIterator(s);
  }
  Iterator* iter = block->NewIterator(icmp_);
  const bool cached = cache_handle != nullptr;
  return new BlockIterCleanup(iter, cached ? nullptr : block,
                              block_cache_.get(), cache_handle);
}

Iterator* Table::NewIterator(const ReadOptions& options) const {
  // With readahead enabled, block reads for this iterator go through a
  // shared prefetch window over the logical (decrypted) file. The
  // wrapper lives in the block-reader closure, so it survives exactly
  // as long as the iterator that fills it.
  std::shared_ptr<RandomAccessFile> readahead;
  if (options.readahead_size > 0) {
    readahead = std::make_shared<ReadaheadRandomAccessFile>(
        file_.get(),
        std::min<size_t>(kDefaultReadaheadInitial, options.readahead_size),
        options.readahead_size, options_.statistics.get());
  }
  return NewTwoLevelIterator(
      index_block_->NewIterator(icmp_),
      [this, options, readahead](const Slice& index_value) {
        return BlockReader(options, index_value,
                           readahead != nullptr ? readahead.get()
                                                : file_.get());
      });
}

Status Table::VerifyBlocks(
    const std::function<void(uint64_t)>& on_block) const {
  ReadOptions opt;
  opt.fill_cache = false;
  std::unique_ptr<Iterator> index_iter(index_block_->NewIterator(icmp_));
  for (index_iter->SeekToFirst(); index_iter->Valid(); index_iter->Next()) {
    BlockHandle handle;
    Slice input = index_iter->value();
    Status s = handle.DecodeFrom(&input);
    if (!s.ok()) {
      return s;
    }
    BlockContents contents;
    // Fresh read straight from the file: a cached copy could mask
    // on-media damage.
    s = ReadBlock(file_.get(), opt, handle, &contents, fname_);
    if (!s.ok()) {
      return s;
    }
    if (contents.heap_allocated) {
      delete[] contents.data.data();
    }
    if (on_block) {
      on_block(handle.size() + kBlockTrailerSize);
    }
  }
  return index_iter->status();
}

Status Table::SalvageEntries(
    const std::function<void(const Slice&, const Slice&)>& fn,
    uint64_t* dropped_blocks) const {
  ReadOptions opt;
  opt.fill_cache = false;
  std::unique_ptr<Iterator> index_iter(index_block_->NewIterator(icmp_));
  for (index_iter->SeekToFirst(); index_iter->Valid(); index_iter->Next()) {
    Block* block = nullptr;
    BlockHandle handle;
    Slice input = index_iter->value();
    Status s = handle.DecodeFrom(&input);
    if (s.ok()) {
      s = ReadBlockObject(file_.get(), opt, handle, fname_, &block);
    }
    if (!s.ok()) {
      // Skipping a whole block preserves key order across the
      // surviving ones, so the salvage output is still a valid SST.
      (*dropped_blocks)++;
      continue;
    }
    std::unique_ptr<Iterator> block_iter(block->NewIterator(icmp_));
    for (block_iter->SeekToFirst(); block_iter->Valid(); block_iter->Next()) {
      fn(block_iter->key(), block_iter->value());
    }
    const Status iter_status = block_iter->status();
    block_iter.reset();
    delete block;
    if (!iter_status.ok()) {
      return iter_status;
    }
  }
  return index_iter->status();
}

Status Table::InternalGet(const ReadOptions& options, const Slice& key,
                          void* arg,
                          void (*handle_result)(void*, const Slice&,
                                                const Slice&)) {
  std::unique_ptr<Iterator> index_iter(index_block_->NewIterator(icmp_));
  index_iter->Seek(key);
  Status s;
  if (index_iter->Valid()) {
    if (filter_ != nullptr) {
      BlockHandle handle;
      Slice handle_value = index_iter->value();
      if (handle.DecodeFrom(&handle_value).ok() &&
          !filter_->KeyMayMatch(handle.offset(), ExtractUserKey(key))) {
        // Filter proves absence: skip the block fetch (and its
        // decryption).
        return Status::OK();
      }
    }
    std::unique_ptr<Iterator> block_iter(
        BlockReader(options, index_iter->value(), file_.get()));
    block_iter->Seek(key);
    if (block_iter->Valid()) {
      (*handle_result)(arg, block_iter->key(), block_iter->value());
    }
    s = block_iter->status();
  }
  if (s.ok()) {
    s = index_iter->status();
  }
  return s;
}

void Table::MultiGet(const ReadOptions& options,
                     const std::vector<TableGetRequest*>& requests) {
  // Resolved block for one or more requests. `block` is either a
  // cache resident (release cache_handle) or owned (delete).
  struct BlockState {
    BlockHandle handle;
    Block* block = nullptr;
    Cache::Handle* cache_handle = nullptr;
    Status status;
    std::vector<size_t> request_indices;  // into `requests`
  };
  // Keyed by block offset: requests are sorted, so this also comes out
  // sorted for the coalescing pass. A block shared by several keys is
  // fetched once.
  std::vector<BlockState> blocks;

  Statistics* stats = options_.statistics.get();
  std::unique_ptr<Iterator> index_iter(index_block_->NewIterator(icmp_));

  // Pass 1: index + bloom probes resolve each request to a block (or
  // to "done": absent per filter, or past the last block).
  for (size_t i = 0; i < requests.size(); i++) {
    TableGetRequest* req = requests[i];
    index_iter->Seek(req->internal_key);
    if (!index_iter->Valid()) {
      req->status = index_iter->status();
      continue;
    }
    BlockHandle handle;
    Slice handle_value = index_iter->value();
    if (!handle.DecodeFrom(&handle_value).ok()) {
      req->status = Status::Corruption("bad block handle in index", fname_);
      continue;
    }
    if (filter_ != nullptr &&
        !filter_->KeyMayMatch(handle.offset(), ExtractUserKey(req->internal_key))) {
      continue;  // proven absent: no fetch, status stays OK
    }
    if (blocks.empty() || blocks.back().handle.offset() != handle.offset()) {
      blocks.emplace_back();
      blocks.back().handle = handle;
    }
    blocks.back().request_indices.push_back(i);
  }

  // Pass 2: satisfy from cache where possible.
  std::vector<BlockState*> misses;
  for (BlockState& bs : blocks) {
    if (block_cache_ != nullptr) {
      char cache_key_buffer[16];
      EncodeFixed64(cache_key_buffer, cache_id_);
      EncodeFixed64(cache_key_buffer + 8, bs.handle.offset());
      bs.cache_handle =
          block_cache_->Lookup(Slice(cache_key_buffer, sizeof(cache_key_buffer)));
      if (bs.cache_handle != nullptr) {
        bs.block =
            reinterpret_cast<Block*>(block_cache_->Value(bs.cache_handle));
        RecordTick(stats, Tickers::kLsmBlockCacheHit);
        PerfAdd(&PerfContext::block_cache_hit_count, 1);
        continue;
      }
      RecordTick(stats, Tickers::kLsmBlockCacheMiss);
    }
    misses.push_back(&bs);
  }

  // Pass 3: group adjacent misses into coalesced spans; one storage
  // round trip per group, then carve + verify each member block.
  const crypto::BlockAuthenticator* auth = file_->block_authenticator();
  const uint64_t tag_size =
      auth != nullptr ? crypto::kBlockAuthTagSize : 0;
  auto stored_size = [tag_size](const BlockHandle& h) {
    return h.size() + kBlockTrailerSize + tag_size;
  };

  size_t g = 0;
  while (g < misses.size()) {
    size_t end = g + 1;
    const uint64_t span_begin = misses[g]->handle.offset();
    uint64_t span_end = span_begin + stored_size(misses[g]->handle);
    while (end < misses.size()) {
      const BlockHandle& next = misses[end]->handle;
      if (next.offset() > span_end + kMaxCoalesceGapBytes ||
          next.offset() + stored_size(next) - span_begin >
              kMaxCoalesceSpanBytes) {
        break;
      }
      span_end = next.offset() + stored_size(next);
      end++;
    }

    bool carved = false;
    if (end - g > 1) {
      // Multi-block group: fetch the whole span in one read.
      const size_t span_len = static_cast<size_t>(span_end - span_begin);
      std::unique_ptr<char[]> span(new char[span_len]);
      Slice span_data;
      Status s;
      {
        StopWatch watch(stats, Histograms::kSstReadMicros);
        PerfTimer timer(&GetPerfContext()->block_read_micros);
        s = file_->Read(span_begin, span_len, &span_data, span.get());
      }
      if (s.ok() && span_data.size() == span_len) {
        carved = true;
        RecordTick(stats, Tickers::kLsmMultiGetBatches);
        PerfAdd(&PerfContext::multiget_batches, 1);
        for (size_t b = g; b < end; b++) {
          BlockState* bs = misses[b];
          const Slice stored(
              span_data.data() + (bs->handle.offset() - span_begin),
              static_cast<size_t>(stored_size(bs->handle)));
          BlockContents contents;
          Status vs =
              VerifyStoredBlock(auth, bs->handle, stored, &contents, fname_);
          if (!vs.ok()) {
            // The span itself may have been damaged in flight; give
            // this block an individual, retrying read below.
            bs->block = nullptr;
            continue;
          }
          bs->block = new Block(contents.data.data(), contents.data.size(),
                                /*owned=*/true);
          PerfAdd(&PerfContext::block_read_count, 1);
          PerfAdd(&PerfContext::block_read_bytes, bs->block->size());
        }
      }
    }
    for (size_t b = g; b < end; b++) {
      BlockState* bs = misses[b];
      if (carved && bs->block != nullptr) continue;
      // Singleton group, failed/short span, or failed carve: the
      // ordinary per-block path (with its own retry schedule).
      bs->status = ReadBlockObjectCounted(file_.get(), options, bs->handle,
                                          fname_, stats, &bs->block);
    }
    g = end;
  }

  // Insert fetched blocks into the cache and answer every request.
  for (BlockState& bs : blocks) {
    if (bs.block != nullptr && bs.cache_handle == nullptr &&
        block_cache_ != nullptr && options.fill_cache) {
      char cache_key_buffer[16];
      EncodeFixed64(cache_key_buffer, cache_id_);
      EncodeFixed64(cache_key_buffer + 8, bs.handle.offset());
      bs.cache_handle = block_cache_->Insert(
          Slice(cache_key_buffer, sizeof(cache_key_buffer)), bs.block,
          bs.block->size(), &DeleteCachedBlock);
    }
    for (size_t i : bs.request_indices) {
      TableGetRequest* req = requests[i];
      if (bs.block == nullptr) {
        req->status = bs.status;
        continue;
      }
      std::unique_ptr<Iterator> block_iter(bs.block->NewIterator(icmp_));
      block_iter->Seek(req->internal_key);
      if (block_iter->Valid()) {
        (*req->handle_result)(req->arg, block_iter->key(), block_iter->value());
      }
      req->status = block_iter->status();
    }
    if (bs.cache_handle != nullptr) {
      block_cache_->Release(bs.cache_handle);
    } else {
      delete bs.block;
    }
  }
}

}  // namespace shield
