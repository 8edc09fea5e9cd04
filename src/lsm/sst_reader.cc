#include "lsm/sst_reader.h"

#include <algorithm>
#include <cstring>

#include "env/readahead_file.h"
#include "lsm/block.h"
#include "lsm/two_level_iterator.h"
#include "util/clock.h"
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

// The payload of verified `contents` in storage the caller owns: a
// plaintext file may return a pointer into its own storage, which is
// copied (a block may outlive the read that produced it).
std::unique_ptr<char[]> TakeBlockStorage(BlockContents* contents) {
  if (!contents->heap_allocated) {
    char* buf = new char[contents->data.size()];
    memcpy(buf, contents->data.data(), contents->data.size());
    contents->data = Slice(buf, contents->data.size());
    contents->heap_allocated = true;
  }
  return std::unique_ptr<char[]>(const_cast<char*>(contents->data.data()));
}

Status ReadBlockObject(RandomAccessFile* file, const ReadOptions& options,
                       const BlockHandle& handle, const std::string& fname,
                       Block** block) {
  BlockContents contents;
  Status s = ReadBlock(file, options, handle, &contents, fname);
  if (s.ok()) {
    const size_t size = contents.data.size();
    *block = new Block(TakeBlockStorage(&contents).release(), size,
                       /*owned=*/true);
  }
  return s;
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
                   uint64_t tail_size, BlockCacheRef block_cache,
                   std::unique_ptr<Table>* table) {
  table->reset();
  constexpr size_t kFooterSize = Footer::kEncodedLength;
  if (file_size < kFooterSize) {
    return Status::Corruption("file is too short to be an sstable", fname);
  }
  // One request for the tail: filter, properties, index and footer sit
  // back to back at the end of the file. An unknown (or implausible)
  // tail size makes the span just the footer. A short read is kept as
  // the genuine prefix it is: whatever it lacks is read singly below,
  // so a torn span never condemns the file.
  const size_t tail =
      tail_size >= kFooterSize && tail_size <= file_size
          ? static_cast<size_t>(tail_size)
          : kFooterSize;
  const uint64_t span_begin = file_size - tail;
  std::unique_ptr<char[]> span_space(new char[tail]);
  Slice span;
  Status s = ReadStoredRetrying(file.get(), span_begin, tail,
                                /*retry_short=*/false, span_space.get(), &span);
  if (!s.ok()) {
    return s;
  }

  // The footer is not a sealed unit: it is decrypted as it is stored.
  char footer_space[kFooterSize];
  Slice footer_input;
  if (span.size() == tail) {
    footer_input = Slice(span.data() + tail - kFooterSize, kFooterSize);
  } else {
    s = ReadStoredRetrying(file.get(), file_size - kFooterSize, kFooterSize,
                           /*retry_short=*/true, footer_space, &footer_input);
    if (s.ok() && footer_input.size() != kFooterSize) {
      s = Status::Corruption("truncated footer read", fname);
    }
  }
  if (s.ok()) {
    s = file->Decrypt(file_size - kFooterSize, &footer_input, footer_space);
  }
  if (!s.ok()) {
    return s;
  }
  Footer footer;
  if (!footer.DecodeFrom(&footer_input).ok()) {
    return Status::Corruption("bad sstable footer (magic or handles)", fname);
  }

  // Meta blocks are opened in place in the span: the index block and
  // the filter then point into it, and the table keeps it. A block whose
  // stored image lies in the span is verified there (tag, then CRC), the
  // way MultiGet carves coalesced spans. One outside the span, or whose
  // carved image fails verification (the span may have been damaged in
  // flight), takes the ordinary per-block read with its own retries, so
  // damage on the medium still fails there; `*owned` then holds it. The
  // footer is not sealed, so its handles are bounds-checked first: a
  // handle that reaches past the end of the file is corrupt.
  if (span.data() != span_space.get()) {
    memcpy(span_space.get(), span.data(), span.size());
  }
  const uint64_t span_end = span_begin + span.size();
  auto in_bounds = [](const BlockHandle& handle, uint64_t begin,
                      uint64_t end) {
    return handle.offset() >= begin && handle.offset() <= end &&
           handle.size() <= end - handle.offset();
  };
  auto read_meta_block = [&](const BlockHandle& handle, Slice* payload,
                             std::unique_ptr<char[]>* owned) {
    if (!in_bounds(handle, 0, file_size)) {
      return Status::Corruption("block handle past end of file at offset " +
                                std::to_string(handle.offset()) + " in " +
                                fname);
    }
    // handle.size() is bounded by the file, so the stored size cannot
    // wrap.
    if (in_bounds(handle, span_begin, span_end) &&
        StoredBlockSize(file.get(), handle) <= span_end - handle.offset() &&
        OpenStoredBlockInPlace(file.get(), handle,
                               span_space.get() + (handle.offset() - span_begin),
                               fname, payload)
            .ok()) {
      return Status::OK();
    }
    BlockContents contents;
    Status rs = ReadBlock(file.get(), ReadOptions(), handle, &contents, fname);
    if (rs.ok()) {
      *owned = TakeBlockStorage(&contents);
      *payload = contents.data;
    }
    return rs;
  };

  Slice index_payload;
  std::unique_ptr<char[]> index_space;
  s = read_meta_block(footer.index_handle(), &index_payload, &index_space);
  if (!s.ok()) {
    return s;
  }
  const bool index_owned = index_space != nullptr;
  std::unique_ptr<Block> index_block(
      new Block(index_owned ? index_space.release() : index_payload.data(),
                index_payload.size(), index_owned));

  TableProperties props;
  Slice prop_payload;
  std::unique_ptr<char[]> prop_space;
  s = read_meta_block(footer.properties_handle(), &prop_payload, &prop_space);
  if (s.ok()) {
    s = DecodeTableProperties(prop_payload, &props);
  }
  if (!s.ok()) {
    return s;
  }

  // The filter travels in the properties. It is read (and verified)
  // only when the reader is configured with the policy that built it.
  uint64_t tail_begin = std::min(footer.index_handle().offset(),
                                 footer.properties_handle().offset());
  Slice filter_payload;
  std::unique_ptr<char[]> filter_space;
  bool has_filter = false;
  auto handle_it = props.find(kPropFilterHandle);
  if (handle_it != props.end()) {
    BlockHandle filter_handle;
    Slice handle_input(handle_it->second);
    if (!filter_handle.DecodeFrom(&handle_input).ok()) {
      return Status::Corruption("bad filter handle in properties", fname);
    }
    tail_begin = std::min(tail_begin, filter_handle.offset());
    auto name_it = props.find(kPropFilterPolicy);
    if (options.filter_policy != nullptr && name_it != props.end() &&
        name_it->second == options.filter_policy->Name()) {
      s = read_meta_block(filter_handle, &filter_payload, &filter_space);
      if (!s.ok()) {
        return s;
      }
      has_filter = true;
    }
  }

  std::unique_ptr<Table> t(new Table());
  t->options_ = options;
  t->icmp_ = icmp;
  t->fname_ = fname;
  t->file_ = std::move(file);
  t->index_block_ = std::move(index_block);
  t->properties_ = std::move(props);
  t->tail_size_ = file_size - std::min(tail_begin, file_size);
  t->block_cache_ = std::move(block_cache.cache);
  t->file_number_ = block_cache.file_number;
  // The span is kept only while the index or the filter points into it.
  size_t metadata_bytes = 0;
  if (!index_owned || (has_filter && filter_space == nullptr)) {
    t->tail_ = std::move(span_space);
    metadata_bytes += tail;
  }
  if (index_owned) {
    metadata_bytes += t->index_block_->size();
  }
  if (has_filter) {
    if (filter_space != nullptr) {
      metadata_bytes += filter_payload.size();
    }
    t->filter_space_ = std::move(filter_space);
    t->filter_ = std::make_unique<FilterBlockReader>(options.filter_policy,
                                                     filter_payload);
  }

  // Charge the block cache for the pinned metadata this table keeps
  // resident (the tail span it holds, plus an index block or bloom
  // filter read singly): a referenced high-priority
  // entry, so the footprint shows up in TotalCharge() and competes
  // with data blocks for budget, while the pin (the handle we hold)
  // guarantees the metadata itself is never evicted mid-life.
  if (t->block_cache_ != nullptr) {
    t->metadata_pin_ = t->block_cache_->Insert(
        BlockCacheKey(t->file_number_, kMetadataPinOffset).slice(), nullptr,
        metadata_bytes, &DeleteNothing, Cache::Priority::kHigh);
  }

  *table = std::move(t);
  return Status::OK();
}

Table::~Table() {
  if (metadata_pin_ != nullptr) {
    block_cache_->Release(metadata_pin_);
  }
}

uint64_t Table::EraseCachedBlocks() const {
  if (block_cache_ == nullptr) {
    return 0;
  }
  uint64_t erased = 0;
  std::unique_ptr<Iterator> index_iter(index_block_->NewIterator(icmp_));
  for (index_iter->SeekToFirst(); index_iter->Valid(); index_iter->Next()) {
    BlockHandle handle;
    Slice input = index_iter->value();
    if (handle.DecodeFrom(&input).ok() &&
        block_cache_->Erase(
            BlockCacheKey(file_number_, handle.offset()).slice())) {
      erased++;
    }
  }
  // The metadata charge goes too; the pin stays valid until ~Table.
  block_cache_->Erase(BlockCacheKey(file_number_, kMetadataPinOffset).slice());
  return erased;
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
    const BlockCacheKey key(file_number_, handle.offset());
    cache_handle = block_cache_->Lookup(key.slice());
    if (cache_handle != nullptr) {
      block = reinterpret_cast<Block*>(block_cache_->Value(cache_handle));
      RecordTick(options_.statistics.get(), Tickers::kLsmBlockCacheHit);
      PerfAdd(&PerfContext::block_cache_hit_count, 1);
    } else {
      RecordTick(options_.statistics.get(), Tickers::kLsmBlockCacheMiss);
      s = ReadBlockObjectCounted(file, options, handle, fname_,
                                 options_.statistics.get(), &block);
      if (s.ok() && options.fill_cache) {
        cache_handle =
            InsertCachedBlock(block_cache_.get(), key.slice(), block);
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
  // shared prefetch window over the file's stored (encrypted) bytes. The
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
      bs.cache_handle = block_cache_->Lookup(
          BlockCacheKey(file_number_, bs.handle.offset()).slice());
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
  auto stored_size = [this](const BlockHandle& h) {
    return StoredBlockSize(file_.get(), h);
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
        s = file_->ReadStored(span_begin, span_len, &span_data, span.get());
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
          Status vs = VerifyStoredBlock(file_.get(), bs->handle, stored,
                                        &contents, fname_);
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
      bs.cache_handle = InsertCachedBlock(
          block_cache_.get(),
          BlockCacheKey(file_number_, bs.handle.offset()).slice(), bs.block);
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
