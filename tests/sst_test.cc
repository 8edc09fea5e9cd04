#include <map>

#include "gtest/gtest.h"
#include "lsm/block.h"
#include "lsm/block_builder.h"
#include "lsm/cache.h"
#include "lsm/file_names.h"
#include "lsm/sst_builder.h"
#include "lsm/sst_reader.h"
#include "lsm/table_cache.h"
#include "lsm/table_format.h"
#include "util/random.h"
#include "util/statistics.h"

namespace shield {
namespace {

// --- BlockBuilder / Block ------------------------------------------------

TEST(BlockTest, EmptyBlock) {
  BlockBuilder builder;
  Slice raw = builder.Finish();
  std::string copy = raw.ToString();
  Block block(copy.data(), copy.size(), /*owned=*/false);
  std::unique_ptr<Iterator> iter(block.NewIterator(BytewiseComparator()));
  iter->SeekToFirst();
  EXPECT_FALSE(iter->Valid());
}

TEST(BlockTest, RoundTripAndSeek) {
  std::map<std::string, std::string> model;
  BlockBuilder builder(/*restart_interval=*/4);
  for (int i = 0; i < 100; i++) {
    char key[16];
    snprintf(key, sizeof(key), "key%04d", i);
    const std::string value = "value" + std::to_string(i);
    builder.Add(key, value);
    model[key] = value;
  }
  const std::string raw = builder.Finish().ToString();
  Block block(raw.data(), raw.size(), /*owned=*/false);
  std::unique_ptr<Iterator> iter(block.NewIterator(BytewiseComparator()));

  // Full forward scan.
  iter->SeekToFirst();
  for (const auto& [key, value] : model) {
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(key, iter->key().ToString());
    EXPECT_EQ(value, iter->value().ToString());
    iter->Next();
  }
  EXPECT_FALSE(iter->Valid());

  // Seeks.
  iter->Seek("key0050");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("key0050", iter->key().ToString());
  iter->Seek("key0050x");  // between keys
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("key0051", iter->key().ToString());
  iter->Seek("zzz");
  EXPECT_FALSE(iter->Valid());

  // Backward scan.
  iter->SeekToLast();
  for (auto rit = model.rbegin(); rit != model.rend(); ++rit) {
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(rit->first, iter->key().ToString());
    iter->Prev();
  }
  EXPECT_FALSE(iter->Valid());
}

TEST(BlockTest, PrefixCompressionPreservesKeys) {
  BlockBuilder builder(16);
  std::vector<std::string> keys = {"commonprefix_a", "commonprefix_b",
                                   "commonprefix_bb", "commonprefix_c",
                                   "different"};
  for (const auto& key : keys) {
    builder.Add(key, "v");
  }
  const std::string raw = builder.Finish().ToString();
  Block block(raw.data(), raw.size(), false);
  std::unique_ptr<Iterator> iter(block.NewIterator(BytewiseComparator()));
  iter->SeekToFirst();
  for (const auto& key : keys) {
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(key, iter->key().ToString());
    iter->Next();
  }
}

// --- Table properties -------------------------------------------------------

TEST(TablePropertiesTest, EncodeDecode) {
  TableProperties props;
  props["a"] = "1";
  props["shield.dek-id"] = std::string(16, '\x7f');
  const std::string encoded = EncodeTableProperties(props);
  TableProperties decoded;
  ASSERT_TRUE(DecodeTableProperties(encoded, &decoded).ok());
  EXPECT_EQ(props, decoded);
}

TEST(TablePropertiesTest, RejectsTruncated) {
  TableProperties props;
  props["key"] = "value";
  std::string encoded = EncodeTableProperties(props);
  encoded.resize(encoded.size() - 2);
  TableProperties decoded;
  EXPECT_FALSE(DecodeTableProperties(encoded, &decoded).ok());
}

// --- BlockHandle / Footer ----------------------------------------------------

TEST(TableFormatTest, BlockHandleRoundTrip) {
  BlockHandle handle;
  handle.set_offset(123456789);
  handle.set_size(987);
  std::string encoded;
  handle.EncodeTo(&encoded);
  BlockHandle decoded;
  Slice input(encoded);
  ASSERT_TRUE(decoded.DecodeFrom(&input).ok());
  EXPECT_EQ(123456789u, decoded.offset());
  EXPECT_EQ(987u, decoded.size());
}

TEST(TableFormatTest, FooterRoundTrip) {
  Footer footer;
  BlockHandle props, index;
  props.set_offset(100);
  props.set_size(50);
  index.set_offset(200);
  index.set_size(75);
  footer.set_properties_handle(props);
  footer.set_index_handle(index);

  std::string encoded;
  footer.EncodeTo(&encoded);
  EXPECT_EQ(Footer::kEncodedLength, encoded.size());

  Footer decoded;
  Slice input(encoded);
  ASSERT_TRUE(decoded.DecodeFrom(&input).ok());
  EXPECT_EQ(100u, decoded.properties_handle().offset());
  EXPECT_EQ(75u, decoded.index_handle().size());
}

TEST(TableFormatTest, FooterRejectsBadMagic) {
  std::string encoded(Footer::kEncodedLength, '\0');
  Footer decoded;
  Slice input(encoded);
  EXPECT_TRUE(decoded.DecodeFrom(&input).IsCorruption());
}

// --- TableBuilder / Table -----------------------------------------------------

class TableTest : public ::testing::Test {
 protected:
  TableTest() : env_(NewMemEnv()), icmp_(BytewiseComparator()) {
    options_.block_size = 512;  // small blocks: exercise many blocks
  }

  // Builds a table of internal keys from the model.
  void BuildTable(const std::map<std::string, std::string>& model) {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_->NewWritableFile("/table.sst", &file).ok());
    TableBuilder builder(options_, &icmp_, file.get());
    SequenceNumber seq = 1;
    for (const auto& [key, value] : model) {
      InternalKey ikey(key, seq++, kTypeValue);
      builder.Add(ikey.Encode(), value);
    }
    builder.SetProperty("test.origin", "unit-test");
    ASSERT_TRUE(builder.Finish().ok());
    file_size_ = builder.FileSize();
    tail_size_ = builder.TailSize();
    ASSERT_TRUE(file->Close().ok());
  }

  void OpenTable(BlockCacheRef cache = {}) {
    std::unique_ptr<RandomAccessFile> file;
    ASSERT_TRUE(env_->NewRandomAccessFile("/table.sst", &file).ok());
    ASSERT_TRUE(Table::Open(options_, &icmp_, "/table.sst", std::move(file),
                            file_size_, tail_size_, cache, &table_)
                    .ok());
  }

  std::string GetValue(const std::string& key, bool* found) {
    struct Result {
      bool found = false;
      std::string value;
      std::string user_key;
    } result;
    result.user_key = key;
    ReadOptions read_options;
    LookupKey lkey(key, kMaxSequenceNumber);
    Status s = table_->InternalGet(
        read_options, lkey.internal_key(), &result,
        [](void* arg, const Slice& k, const Slice& v) {
          auto* r = reinterpret_cast<Result*>(arg);
          if (ExtractUserKey(k).ToString() == r->user_key) {
            r->found = true;
            r->value = v.ToString();
          }
        });
    EXPECT_TRUE(s.ok());
    *found = result.found;
    return result.value;
  }

  std::unique_ptr<Env> env_;
  InternalKeyComparator icmp_;
  Options options_;
  uint64_t file_size_ = 0;
  uint64_t tail_size_ = 0;
  std::unique_ptr<Table> table_;
};

TEST_F(TableTest, BuildAndScan) {
  std::map<std::string, std::string> model;
  Random rnd(17);
  for (int i = 0; i < 1000; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%06d", i);
    model[key] = std::string(1 + rnd.Uniform(200), 'v');
  }
  BuildTable(model);
  OpenTable();

  ReadOptions read_options;
  std::unique_ptr<Iterator> iter(table_->NewIterator(read_options));
  iter->SeekToFirst();
  for (const auto& [key, value] : model) {
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(key, ExtractUserKey(iter->key()).ToString());
    EXPECT_EQ(value, iter->value().ToString());
    iter->Next();
  }
  EXPECT_FALSE(iter->Valid());
  EXPECT_TRUE(iter->status().ok());
}

TEST_F(TableTest, PointLookups) {
  std::map<std::string, std::string> model;
  for (int i = 0; i < 500; i++) {
    model["key" + std::to_string(i * 2)] = "value" + std::to_string(i);
  }
  BuildTable(model);
  OpenTable();

  bool found;
  EXPECT_EQ("value100", GetValue("key200", &found));
  EXPECT_TRUE(found);
  GetValue("key201", &found);  // absent key
  EXPECT_FALSE(found);
}

TEST_F(TableTest, PropertiesPersisted) {
  std::map<std::string, std::string> model{{"a", "1"}, {"b", "2"}};
  BuildTable(model);
  OpenTable();
  const TableProperties& props = table_->properties();
  EXPECT_EQ("unit-test", props.at("test.origin"));
  EXPECT_EQ("2", props.at(kPropNumEntries));
}

TEST_F(TableTest, BlockCacheServesRepeatReads) {
  std::map<std::string, std::string> model;
  for (int i = 0; i < 200; i++) {
    model["key" + std::to_string(i)] = std::string(50, 'x');
  }
  BuildTable(model);
  auto cache = NewLRUCache(1 << 20);
  OpenTable({cache, /*file_number=*/1});

  bool found;
  GetValue("key100", &found);
  EXPECT_TRUE(found);
  const size_t charge_after_first = cache->TotalCharge();
  EXPECT_GT(charge_after_first, 0u);
  GetValue("key100", &found);
  EXPECT_TRUE(found);
  EXPECT_EQ(charge_after_first, cache->TotalCharge());  // cache hit
}

TEST_F(TableTest, ChecksumCorruptionDetected) {
  std::map<std::string, std::string> model;
  for (int i = 0; i < 100; i++) {
    model["key" + std::to_string(i)] = "payload payload payload";
  }
  BuildTable(model);

  // Flip a byte in the middle of the data section.
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env_.get(), "/table.sst", &contents).ok());
  contents[100] ^= 0x40;
  ASSERT_TRUE(
      WriteStringToFile(env_.get(), contents, "/table.sst", false).ok());

  OpenTable();
  ReadOptions read_options;
  std::unique_ptr<Iterator> iter(table_->NewIterator(read_options));
  iter->SeekToFirst();
  while (iter->Valid()) {
    iter->Next();
  }
  EXPECT_TRUE(iter->status().IsCorruption()) << iter->status().ToString();
}

TEST_F(TableTest, OpenRejectsTruncatedFile) {
  std::map<std::string, std::string> model{{"k", "v"}};
  BuildTable(model);
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env_.get(), "/table.sst", &contents).ok());
  contents.resize(10);
  ASSERT_TRUE(
      WriteStringToFile(env_.get(), contents, "/table.sst", false).ok());

  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env_->NewRandomAccessFile("/table.sst", &file).ok());
  std::unique_ptr<Table> table;
  EXPECT_FALSE(
      Table::Open(options_, &icmp_, "/table.sst", std::move(file), 10,
                  /*tail_size=*/0, /*block_cache=*/{}, &table)
          .ok());
}

// --- LRU cache ------------------------------------------------------------

TEST(CacheTest, InsertLookupErase) {
  // Large enough that one entry plus its bookkeeping overhead fits in
  // a single shard (charges include per-entry metadata).
  auto cache = NewLRUCache(64 * 1024);
  int* value = new int(42);
  Cache::Handle* handle = cache->Insert(
      "key", value, 1, [](const Slice&, void* v) {
        delete reinterpret_cast<int*>(v);
      });
  cache->Release(handle);

  handle = cache->Lookup("key");
  ASSERT_NE(nullptr, handle);
  EXPECT_EQ(42, *reinterpret_cast<int*>(cache->Value(handle)));
  cache->Release(handle);

  cache->Erase("key");
  EXPECT_EQ(nullptr, cache->Lookup("key"));
}

TEST(CacheTest, EvictsLeastRecentlyUsed) {
  auto cache = NewLRUCache(16);  // tiny: one entry per shard at most
  for (int i = 0; i < 100; i++) {
    const std::string key = "key" + std::to_string(i);
    Cache::Handle* handle =
        cache->Insert(key, new int(i), 1, [](const Slice&, void* v) {
          delete reinterpret_cast<int*>(v);
        });
    cache->Release(handle);
  }
  // Capacity respected (some early keys evicted).
  EXPECT_LE(cache->TotalCharge(), 16u);
}

TEST(CacheTest, PinnedEntriesSurviveEviction) {
  auto cache = NewLRUCache(1);
  Cache::Handle* pinned = cache->Insert(
      "pinned", new int(1), 1,
      [](const Slice&, void* v) { delete reinterpret_cast<int*>(v); });
  // Insert more entries to force eviction pressure.
  for (int i = 0; i < 10; i++) {
    Cache::Handle* handle = cache->Insert(
        "other" + std::to_string(i), new int(i), 1,
        [](const Slice&, void* v) { delete reinterpret_cast<int*>(v); });
    cache->Release(handle);
  }
  // The pinned handle's value must still be readable.
  EXPECT_EQ(1, *reinterpret_cast<int*>(cache->Value(pinned)));
  cache->Release(pinned);
}

TEST_F(TableTest, TableReopenedAfterEvictServesBlocksFromCache) {
  // Blocks are cached under the file's number, not under one open of
  // it: a table the table cache evicts and opens again still finds
  // them.
  std::map<std::string, std::string> model;
  for (int i = 0; i < 200; i++) {
    model["key" + std::to_string(i)] = std::string(50, 'x');
  }
  BuildTable(model);
  ASSERT_TRUE(env_->RenameFile("/table.sst", TableFileName("/db", 7)).ok());
  FileMetaData file;
  file.number = 7;
  file.file_size = file_size_;
  file.tail_size = tail_size_;

  auto stats = CreateDBStatistics();
  options_.statistics = stats;
  std::unique_ptr<DataFileFactory> files = NewPlainFileFactory(env_.get());
  TableCache tables("/db", options_, &icmp_, files.get(),
                    NewLRUCache(1 << 20), /*max_open_tables=*/1000);
  auto get = [&] {
    LookupKey lkey("key100", kMaxSequenceNumber);
    std::string value;
    ASSERT_TRUE(tables
                    .Get(ReadOptions(), file, lkey.internal_key(), &value,
                         [](void* arg, const Slice&, const Slice& v) {
                           reinterpret_cast<std::string*>(arg)->assign(
                               v.data(), v.size());
                         })
                    .ok());
    EXPECT_EQ(std::string(50, 'x'), value);
  };

  get();
  EXPECT_EQ(1u, stats->GetTickerCount(Tickers::kLsmTableCacheMiss));
  EXPECT_EQ(1u, stats->GetTickerCount(Tickers::kLsmBlockCacheMiss));
  EXPECT_EQ(0u, stats->GetTickerCount(Tickers::kLsmBlockCacheHit));

  tables.Evict(7);
  get();
  EXPECT_EQ(2u, stats->GetTickerCount(Tickers::kLsmTableCacheMiss));
  EXPECT_EQ(1u, stats->GetTickerCount(Tickers::kLsmBlockCacheMiss));
  EXPECT_EQ(1u, stats->GetTickerCount(Tickers::kLsmBlockCacheHit));
}

}  // namespace
}  // namespace shield
