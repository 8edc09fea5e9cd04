#ifndef SHIELD_LSM_SST_BUILDER_H_
#define SHIELD_LSM_SST_BUILDER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "env/env.h"
#include "lsm/block_builder.h"
#include "lsm/filter_block.h"
#include "lsm/format.h"
#include "lsm/options.h"
#include "lsm/table_format.h"
#include "util/status.h"

namespace shield {

/// Builds a block-based SST file: sorted data blocks with checksums,
/// an index block, a properties block and a footer. Keys are internal
/// keys and must be added in increasing order.
///
/// Encryption note: the builder writes to an abstract WritableFile.
/// Under SHIELD the file is an encrypting writer (shield/encrypted_file.h)
/// that encrypts appended chunks, so the builder — like RocksDB modified by the paper — never
/// sees ciphertext.
class TableBuilder {
 public:
  /// `file` is borrowed and must stay open until Finish()/Abandon().
  TableBuilder(const Options& options, const InternalKeyComparator* icmp,
               WritableFile* file);
  ~TableBuilder();

  TableBuilder(const TableBuilder&) = delete;
  TableBuilder& operator=(const TableBuilder&) = delete;

  void Add(const Slice& key, const Slice& value);

  /// Sets a free-form table property persisted in the properties block
  /// (e.g. SHIELD's DEK-ID). Must be called before Finish().
  void SetProperty(const std::string& key, const std::string& value);

  /// Flushes all pending blocks and writes index/properties/footer.
  Status Finish();
  /// Abandons the file contents (builder becomes unusable).
  void Abandon();

  uint64_t NumEntries() const { return num_entries_; }
  /// Size of the file generated so far.
  uint64_t FileSize() const { return offset_; }
  Status status() const { return status_; }

 private:
  void WriteDataBlock();
  Status WriteRawBlock(const Slice& contents, BlockHandle* handle);

  const Options options_;
  const InternalKeyComparator* icmp_;
  WritableFile* file_;
  uint64_t offset_ = 0;
  Status status_;
  BlockBuilder data_block_;
  BlockBuilder index_block_;
  std::string last_key_;
  uint64_t num_entries_ = 0;
  uint64_t raw_key_bytes_ = 0;
  uint64_t raw_value_bytes_ = 0;
  bool closed_ = false;
  TableProperties properties_;
  std::unique_ptr<FilterBlockBuilder> filter_block_;

  // Set when a data block is finished but its index entry is deferred
  // until the next key is known (enables shortened separators).
  bool pending_index_entry_ = false;
  BlockHandle pending_handle_;
};

}  // namespace shield

#endif  // SHIELD_LSM_SST_BUILDER_H_
