#include "lsm/sst_builder.h"

#include <cassert>
#include <cstring>
#include <utility>

#include "crypto/block_auth.h"
#include "lsm/block.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/statistics.h"

namespace shield {

TableBuilder::TableBuilder(const Options& options,
                           const InternalKeyComparator* icmp,
                           WritableFile* file, BlockCacheRef write_through)
    : options_(options),
      icmp_(icmp),
      file_(file),
      write_through_(std::move(write_through)) {
  if (options_.filter_policy != nullptr) {
    filter_block_ =
        std::make_unique<FilterBlockBuilder>(options_.filter_policy);
    filter_block_->StartBlock(0);
  }
}

TableBuilder::~TableBuilder() { assert(closed_); }

void TableBuilder::Add(const Slice& key, const Slice& value) {
  assert(!closed_);
  if (!status_.ok()) {
    return;
  }
  if (num_entries_ > 0) {
    assert(icmp_->Compare(key, Slice(last_key_)) > 0);
  }

  if (pending_index_entry_) {
    assert(data_block_.empty());
    icmp_->FindShortestSeparator(&last_key_, key);
    std::string handle_encoding;
    pending_handle_.EncodeTo(&handle_encoding);
    index_block_.Add(last_key_, handle_encoding);
    pending_index_entry_ = false;
  }

  if (filter_block_ != nullptr) {
    filter_block_->AddKey(ExtractUserKey(key));
  }

  last_key_.assign(key.data(), key.size());
  num_entries_++;
  raw_key_bytes_ += key.size();
  raw_value_bytes_ += value.size();
  data_block_.Add(key, value);

  if (data_block_.CurrentSizeEstimate() >= options_.block_size) {
    WriteDataBlock();
  }
}

void TableBuilder::WriteDataBlock() {
  assert(!closed_);
  if (!status_.ok() || data_block_.empty()) {
    return;
  }
  assert(!pending_index_entry_);
  const Slice raw = data_block_.Finish();
  status_ = WriteRawBlock(raw, &pending_handle_);
  if (status_.ok() && write_through_.cache != nullptr) {
    char* copy = new char[raw.size()];
    memcpy(copy, raw.data(), raw.size());
    Cache* cache = write_through_.cache.get();
    cache->Release(InsertCachedBlock(
        cache,
        BlockCacheKey(write_through_.file_number, pending_handle_.offset())
            .slice(),
        new Block(copy, raw.size(), /*owned=*/true)));
    written_through_.push_back(pending_handle_.offset());
    RecordTick(options_.statistics.get(),
               Tickers::kLsmBlockCacheFlushInserts);
  }
  data_block_.Reset();
  if (status_.ok()) {
    pending_index_entry_ = true;
    status_ = file_->Flush();
  }
  if (filter_block_ != nullptr) {
    filter_block_->StartBlock(offset_);
  }
}

Status TableBuilder::WriteRawBlock(const Slice& contents,
                                   BlockHandle* handle) {
  handle->set_offset(offset_);
  handle->set_size(contents.size());
  char trailer[kBlockTrailerSize];
  trailer[0] = 0;  // raw, uncompressed
  uint32_t crc = crc32c::Value(contents.data(), contents.size());
  crc = crc32c::Extend(crc, trailer, 1);
  EncodeFixed32(trailer + 1, crc32c::Mask(crc));
  // Block and trailer go to the file as one sealed unit. An
  // authenticated file (SHIELD/EncFS format v2 or v3) follows it with a
  // tag over the unit's ciphertext, pinned to the block's offset.
  // Readers know the tag is there from the file header, so handles and
  // the footer keep their classic layout.
  Status s = file_->AppendSealed(contents, Slice(trailer, kBlockTrailerSize));
  if (s.ok()) {
    offset_ += contents.size() + kBlockTrailerSize;
    if (file_->block_authenticator() != nullptr) {
      offset_ += crypto::kBlockAuthTagSize;
    }
  }
  return s;
}

void TableBuilder::SetProperty(const std::string& key,
                               const std::string& value) {
  properties_[key] = value;
}

Status TableBuilder::Finish() {
  assert(!closed_);
  WriteDataBlock();
  closed_ = true;
  if (!status_.ok()) {
    return status_;
  }

  if (pending_index_entry_) {
    icmp_->FindShortSuccessor(&last_key_);
    std::string handle_encoding;
    pending_handle_.EncodeTo(&handle_encoding);
    index_block_.Add(last_key_, handle_encoding);
    pending_index_entry_ = false;
  }

  // The tail: filter block (if configured; its handle travels via
  // properties), properties, index and footer, back to back.
  const uint64_t tail_begin = offset_;
  BlockHandle filter_handle;
  bool has_filter = false;
  if (filter_block_ != nullptr) {
    status_ = WriteRawBlock(filter_block_->Finish(), &filter_handle);
    if (!status_.ok()) {
      return status_;
    }
    has_filter = true;
  }

  // Properties block.
  BlockHandle properties_handle;
  {
    TableProperties props = properties_;
    if (has_filter) {
      std::string encoded;
      filter_handle.EncodeTo(&encoded);
      props[kPropFilterHandle] = encoded;
      props[kPropFilterPolicy] = options_.filter_policy->Name();
    }
    props[kPropNumEntries] = std::to_string(num_entries_);
    props[kPropRawKeyBytes] = std::to_string(raw_key_bytes_);
    props[kPropRawValueBytes] = std::to_string(raw_value_bytes_);
    status_ = WriteRawBlock(EncodeTableProperties(props), &properties_handle);
    if (!status_.ok()) {
      return status_;
    }
  }

  // Index block.
  BlockHandle index_handle;
  status_ = WriteRawBlock(index_block_.Finish(), &index_handle);
  if (!status_.ok()) {
    return status_;
  }

  // Footer.
  Footer footer;
  footer.set_properties_handle(properties_handle);
  footer.set_index_handle(index_handle);
  std::string footer_encoding;
  footer.EncodeTo(&footer_encoding);
  status_ = file_->Append(footer_encoding);
  if (status_.ok()) {
    offset_ += footer_encoding.size();
    tail_size_ = offset_ - tail_begin;
  }
  return status_;
}

void TableBuilder::Abandon() {
  assert(!closed_);
  closed_ = true;
  EraseWrittenThrough();
}

void TableBuilder::EraseWrittenThrough() {
  for (uint64_t offset : written_through_) {
    write_through_.cache->Erase(
        BlockCacheKey(write_through_.file_number, offset).slice());
  }
  written_through_.clear();
}

}  // namespace shield
