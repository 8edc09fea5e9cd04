// The table and block caches through the public DB interface: open
// tables stay open across Gets, shared tables serve readers on several
// threads while a writer flushes and compacts under them, and a flush
// installs its table warm (open, its blocks written through while
// reads run) while a dead table's blocks leave the block cache with it.

#include <atomic>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "env/env.h"
#include "gtest/gtest.h"
#include "kds/local_kds.h"
#include "lsm/block.h"
#include "lsm/compaction_job.h"
#include "lsm/db.h"
#include "lsm/file_names.h"
#include "shield/dek_manager.h"
#include "shield/file_crypto.h"
#include "util/random.h"
#include "util/statistics.h"

namespace shield {
namespace {

constexpr int kKeys = 4000;

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "key%06d", i);
  return buf;
}

// A value that names its key, so a reader can check any version of it.
std::string Value(const Slice& key, int round) {
  return key.ToString() + "@" + std::to_string(round) + std::string(80, 'v');
}

bool ValueMatches(const Slice& key, const Slice& value) {
  return value.starts_with(key) && value.size() > key.size() &&
         value[key.size()] == '@';
}

class TableCacheTest : public ::testing::Test {
 protected:
  TableCacheTest() : env_(NewMemEnv()), stats_(CreateDBStatistics()) {
    options_.env = env_.get();
    options_.statistics = stats_;
    options_.write_buffer_size = 32 * 1024;
    options_.target_file_size_base = 32 * 1024;
    DB* db = nullptr;
    EXPECT_TRUE(DB::Open(options_, "/db", &db).ok());
    db_.reset(db);
  }

  void Load(int round) {
    for (int i = 0; i < kKeys; i++) {
      const std::string key = Key(i);
      ASSERT_TRUE(db_->Put(WriteOptions(), key, Value(key, round)).ok());
    }
  }

  std::unique_ptr<Env> env_;
  std::shared_ptr<Statistics> stats_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(TableCacheTest, TableOpensStayWithinLiveFiles) {
  Load(0);
  ASSERT_TRUE(db_->Flush().ok());
  db_->WaitForIdle();
  std::vector<std::string> live;
  ASSERT_TRUE(db_->GetLiveSstFiles(&live).ok());
  ASSERT_GT(live.size(), 4u);

  // Every Get past the first on a table finds it open: a workload of
  // 100k Gets opens each live table once at most.
  const uint64_t opens_before =
      stats_->GetTickerCount(Tickers::kLsmTableCacheMiss);
  Random rnd(301);
  std::string value;
  for (int i = 0; i < 100000; i++) {
    const std::string key = Key(static_cast<int>(rnd.Uniform(kKeys)));
    ASSERT_TRUE(db_->Get(ReadOptions(), key, &value).ok()) << key;
  }
  const uint64_t opens =
      stats_->GetTickerCount(Tickers::kLsmTableCacheMiss) - opens_before;
  EXPECT_LE(opens, live.size());
  EXPECT_GE(stats_->GetTickerCount(Tickers::kLsmTableCacheHit), 100000u - opens);
}

TEST_F(TableCacheTest, SharedTablesServeReadersWhileWriterCompacts) {
  Load(0);
  ASSERT_TRUE(db_->Flush().ok());

  // Readers run at least a fixed number of rounds and keep going until
  // the writer is done. Every check holds however the threads
  // interleave: any version of a key names that key.
  constexpr int kReaders = 4;
  constexpr int kRounds = 300;
  std::atomic<bool> writer_done{false};
  std::atomic<int> failures{0};
  auto fail = [&failures](bool ok) {
    if (!ok) {
      failures.fetch_add(1);
    }
  };
  auto reader = [&](int id) {
    Random rnd(1000 + id);
    std::string value;
    for (int round = 0; round < kRounds || !writer_done.load(); round++) {
      switch ((round + id) % 3) {
        case 0: {
          const std::string key = Key(static_cast<int>(rnd.Uniform(kKeys)));
          const Status s = db_->Get(ReadOptions(), key, &value);
          fail(s.ok() && ValueMatches(key, value));
          break;
        }
        case 1: {
          std::vector<std::string> keys;
          for (int i = 0; i < 8; i++) {
            keys.push_back(Key(static_cast<int>(rnd.Uniform(kKeys))));
          }
          const std::vector<Slice> slices(keys.begin(), keys.end());
          std::vector<std::string> values;
          const std::vector<Status> statuses =
              db_->MultiGet(ReadOptions(), slices, &values);
          for (size_t i = 0; i < keys.size(); i++) {
            fail(statuses[i].ok() && ValueMatches(keys[i], values[i]));
          }
          break;
        }
        default: {
          std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
          const int first = static_cast<int>(rnd.Uniform(kKeys - 50));
          it->Seek(Key(first));
          for (int i = first; i < first + 50; i++) {
            fail(it->Valid() && it->key() == Slice(Key(i)) &&
                 ValueMatches(it->key(), it->value()));
            if (!it->Valid()) {
              break;
            }
            it->Next();
          }
          fail(it->status().ok());
          break;
        }
      }
    }
  };

  std::vector<std::thread> readers;
  for (int id = 0; id < kReaders; id++) {
    readers.emplace_back(reader, id);
  }
  const std::string begin = Key(kKeys / 4);
  const std::string end = Key(kKeys / 2);
  const Slice b(begin), e(end);
  Status s;
  for (int round = 1; round <= 3 && s.ok(); round++) {
    for (int i = 0; i < kKeys && s.ok(); i++) {
      s = db_->Put(WriteOptions(), Key(i), Value(Key(i), round));
    }
    if (s.ok()) {
      s = db_->Flush();
    }
    if (s.ok()) {
      s = db_->CompactRange(&b, &e);
    }
  }
  writer_done.store(true);
  for (std::thread& t : readers) {
    t.join();
  }
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(0, failures.load());

  std::string value;
  for (int i = 0; i < kKeys; i += 97) {
    ASSERT_TRUE(db_->Get(ReadOptions(), Key(i), &value).ok());
    EXPECT_EQ(Value(Key(i), 3), value);
  }
}

// The detector over lsm.table.cache.{hit,miss} as the health plane
// reports it after an evaluation.
std::string TableCacheHealth(DB* db) {
  std::vector<HealthTransition> transitions;
  EXPECT_TRUE(db->EvaluateHealth(&transitions).ok());
  std::string json;
  EXPECT_TRUE(db->GetProperty("shield.health", &json));
  const std::string key = "{\"name\":\"lsm.table_cache\",\"level\":\"";
  const size_t at = json.find(key);
  EXPECT_NE(std::string::npos, at) << json;
  if (at == std::string::npos) {
    return "";
  }
  const size_t begin = at + key.size();
  return json.substr(begin, json.find('"', begin) - begin);
}

TEST_F(TableCacheTest, InstallOpensKeepTheDetectorQuiet) {
  // Every flush opens its table before publishing it, a table-cache
  // miss with no Get behind it. Each table is still opened once, so a
  // workload that reads as it writes stays well under the detector's
  // 10% miss share.
  TableCacheHealth(db_.get());
  Random rnd(7);
  std::string value;
  for (int round = 0; round < 3; round++) {
    Load(round);
    for (int i = 0; i < 2000; i++) {
      const std::string key = Key(static_cast<int>(rnd.Uniform(kKeys)));
      ASSERT_TRUE(db_->Get(ReadOptions(), key, &value).ok()) << key;
      EXPECT_EQ(Value(key, round), value);
    }
  }
  db_->WaitForIdle();
  const uint64_t hits = stats_->GetTickerCount(Tickers::kLsmTableCacheHit);
  const uint64_t misses = stats_->GetTickerCount(Tickers::kLsmTableCacheMiss);
  EXPECT_GT(misses, 0u);
  EXPECT_LE(misses * 10, hits + misses);
  EXPECT_EQ("ok", TableCacheHealth(db_.get()));
}

// --- Warm install -----------------------------------------------------------

// Below any encryption: counts the reads and opens of table files
// (`.sst`), what a read costs the storage, and can fail their Syncs.
class SstProbeEnv : public EnvWrapper {
 public:
  explicit SstProbeEnv(Env* target) : EnvWrapper(target) {}

  Status NewRandomAccessFile(const std::string& f,
                             std::unique_ptr<RandomAccessFile>* r) override {
    Status s = EnvWrapper::NewRandomAccessFile(f, r);
    if (s.ok() && IsTableFile(f)) {
      opens.fetch_add(1);
      *r = std::make_unique<CountingFile>(std::move(*r), &reads);
    }
    return s;
  }

  Status NewWritableFile(const std::string& f,
                         std::unique_ptr<WritableFile>* r) override {
    Status s = EnvWrapper::NewWritableFile(f, r);
    if (s.ok() && IsTableFile(f)) {
      *r = std::make_unique<SyncFailingFile>(std::move(*r), &fail_syncs);
    }
    return s;
  }

  std::atomic<int> opens{0};
  std::atomic<int> reads{0};
  std::atomic<bool> fail_syncs{false};

 private:
  static bool IsTableFile(const std::string& f) {
    return f.size() > 4 && f.compare(f.size() - 4, 4, ".sst") == 0;
  }

  // The target stores plaintext (the encryption layers sit above this
  // env), so Read and Size are all there is to forward.
  class CountingFile : public RandomAccessFile {
   public:
    CountingFile(std::unique_ptr<RandomAccessFile> target,
                 std::atomic<int>* reads)
        : target_(std::move(target)), reads_(reads) {}
    Status Read(uint64_t offset, size_t n, Slice* result,
                char* scratch) const override {
      reads_->fetch_add(1);
      return target_->Read(offset, n, result, scratch);
    }
    Status Size(uint64_t* size) const override { return target_->Size(size); }

   private:
    std::unique_ptr<RandomAccessFile> target_;
    std::atomic<int>* reads_;
  };

  class SyncFailingFile : public WritableFile {
   public:
    SyncFailingFile(std::unique_ptr<WritableFile> target,
                    std::atomic<bool>* fail)
        : target_(std::move(target)), fail_(fail) {}
    Status Append(const Slice& data) override { return target_->Append(data); }
    Status Flush() override { return target_->Flush(); }
    Status Sync() override {
      return fail_->load() ? Status::IOError("injected SST sync failure")
                           : target_->Sync();
    }
    Status Close() override { return target_->Close(); }
    uint64_t GetFileSize() const override { return target_->GetFileSize(); }

   private:
    std::unique_ptr<WritableFile> target_;
    std::atomic<bool>* fail_;
  };
};

struct Engine {
  EncryptionMode mode;
  const char* name;
};

void PrintTo(const Engine& engine, std::ostream* os) { *os << engine.name; }

class WarmInstallTest : public ::testing::TestWithParam<Engine> {
 protected:
  WarmInstallTest()
      : mem_env_(NewMemEnv()),
        env_(mem_env_.get()),
        stats_(CreateDBStatistics()) {
    options_.env = &env_;
    options_.statistics = stats_;
    options_.encryption.mode = GetParam().mode;
    if (GetParam().mode == EncryptionMode::kEncFS) {
      options_.encryption.instance_key = std::string(16, 'K');
    }
    if (GetParam().mode == EncryptionMode::kShield) {
      options_.encryption.kds = std::make_shared<LocalKds>();
    }
    DB* db = nullptr;
    const Status s = DB::Open(options_, "/db", &db);
    EXPECT_TRUE(s.ok()) << s.ToString();
    db_.reset(db);
  }

  // Keys [first, first + count) at `round`: a few KiB each time, far
  // below the write buffer, so only Flush() flushes.
  void Load(int first, int count, int round) {
    for (int i = first; i < first + count; i++) {
      const std::string key = Key(i);
      ASSERT_TRUE(db_->Put(WriteOptions(), key, Value(key, round)).ok());
    }
  }

  void ExpectValue(int i, int round) {
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), Key(i), &value).ok()) << Key(i);
    EXPECT_EQ(Value(Key(i), round), value);
  }

  uint64_t Ticker(Tickers ticker) { return stats_->GetTickerCount(ticker); }

  uint64_t CacheUsage() {
    std::string value;
    EXPECT_TRUE(db_->GetProperty("shield.block-cache-usage", &value));
    return std::stoull(value);
  }

  std::unique_ptr<Env> mem_env_;
  SstProbeEnv env_;
  std::shared_ptr<Statistics> stats_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_P(WarmInstallTest, GetAfterFlushReadsNoBlock) {
  Load(0, 300, 0);
  ExpectValue(7, 0);  // a read, served by the memtable, before the flush
  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_GT(Ticker(Tickers::kLsmBlockCacheFlushInserts), 1u);

  // The table is open and every block is cached: no Get touches it.
  const int opens = env_.opens.load();
  const int reads = env_.reads.load();
  for (int i = 0; i < 300; i += 7) {
    ExpectValue(i, 0);
  }
  EXPECT_EQ(opens, env_.opens.load());
  EXPECT_EQ(reads, env_.reads.load());
  EXPECT_EQ(0u, Ticker(Tickers::kLsmBlockCacheMiss));
  EXPECT_GT(Ticker(Tickers::kLsmBlockCacheHit), 0u);
}

TEST_P(WarmInstallTest, FlushWithoutReadsCachesNoBlock) {
  Load(0, 300, 0);
  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_EQ(0u, Ticker(Tickers::kLsmBlockCacheFlushInserts));

  // The table was opened at install, so a Get reads just its block.
  const int opens = env_.opens.load();
  const int reads = env_.reads.load();
  ExpectValue(7, 0);
  EXPECT_EQ(opens, env_.opens.load());
  EXPECT_EQ(reads + 1, env_.reads.load());
  EXPECT_EQ(1u, Ticker(Tickers::kLsmBlockCacheMiss));

  // That Get opens the gate for the next flush only.
  Load(300, 300, 0);
  ASSERT_TRUE(db_->Flush().ok());
  const uint64_t inserted = Ticker(Tickers::kLsmBlockCacheFlushInserts);
  EXPECT_GT(inserted, 0u);
  Load(600, 300, 0);
  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_EQ(inserted, Ticker(Tickers::kLsmBlockCacheFlushInserts));
}

TEST_P(WarmInstallTest, FailedFlushLeavesNoBlockCached) {
  Load(0, 300, 0);
  ExpectValue(7, 0);
  ASSERT_EQ(0u, CacheUsage());
  env_.fail_syncs.store(true);
  EXPECT_FALSE(db_->Flush().ok());
  // The blocks went in as they were written, and left with the file.
  EXPECT_GT(Ticker(Tickers::kLsmBlockCacheFlushInserts), 0u);
  EXPECT_EQ(0u, CacheUsage());
}

TEST_P(WarmInstallTest, CompactionErasesItsInputsBlocks) {
  for (int round = 0; round < 3; round++) {
    Load(0, 300, round);
    ExpectValue(7, round);
    ASSERT_TRUE(db_->Flush().ok());
  }
  for (int i = 0; i < 300; i++) {
    ExpectValue(i, 2);
  }
  EXPECT_GT(CacheUsage(), 0u);

  ASSERT_TRUE(db_->CompactRange(nullptr, nullptr).ok());
  db_->WaitForIdle();
  // Every input's blocks and pinned metadata are gone; the output is
  // neither written through nor open yet.
  EXPECT_GT(Ticker(Tickers::kLsmBlockCacheDeadErases), 0u);
  EXPECT_EQ(0u, CacheUsage());
  for (int i = 0; i < 300; i += 7) {
    ExpectValue(i, 2);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, WarmInstallTest,
    ::testing::Values(Engine{EncryptionMode::kNone, "Plaintext"},
                      Engine{EncryptionMode::kEncFS, "EncFS"},
                      Engine{EncryptionMode::kShield, "Shield"}),
    [](const ::testing::TestParamInfo<Engine>& info) {
      return std::string(info.param.name);
    });

// What a flush writes through is what a reader would cache: each data
// block's payload, byte for byte as ReadBlock verifies and decrypts it
// from the file, under the key the reader looks it up by.
TEST(WriteThroughTest, CachedBlocksMatchTheFile) {
  std::unique_ptr<Env> env(NewMemEnv());
  LocalKds kds;
  DekManager dek_manager(&kds, "test-server", nullptr);
  EncryptionOptions encryption;
  encryption.mode = EncryptionMode::kShield;
  std::unique_ptr<DataFileFactory> factories[] = {
      NewPlainFileFactory(env.get()),
      NewShieldFileFactory(env.get(), &dek_manager, encryption, nullptr)};
  Options options;
  options.block_size = 512;
  const InternalKeyComparator icmp(BytewiseComparator());
  uint64_t number = 10;
  for (const auto& files : factories) {
    number++;
    const std::string fname = TableFileName("/db", number);
    std::shared_ptr<Cache> cache = NewLRUCache(1 << 20);
    SstOutput out(options, &icmp);
    ASSERT_TRUE(out.Open(files.get(), fname, number, cache).ok());
    for (int i = 0; i < 200; i++) {
      const InternalKey ikey(Key(i), i + 1, kTypeValue);
      ASSERT_TRUE(out.Add(ikey.Encode(), Value(Key(i), 0)).ok());
    }
    CompactionOutputMeta meta;
    ASSERT_TRUE(out.Finish(&meta).ok());

    // Data blocks lie back to back from offset 0 up to the tail.
    std::unique_ptr<RandomAccessFile> file;
    ASSERT_TRUE(files->NewRandomAccessFile(fname, &file).ok());
    uint64_t offset = 0;
    int blocks = 0;
    while (Cache::Handle* h =
               cache->Lookup(BlockCacheKey(number, offset).slice())) {
      const Block* cached = reinterpret_cast<Block*>(cache->Value(h));
      BlockHandle handle;
      handle.set_offset(offset);
      handle.set_size(cached->size());
      BlockContents contents;
      ASSERT_TRUE(ReadBlock(file.get(), ReadOptions(), handle, &contents).ok());
      EXPECT_EQ(contents.data, cached->data()) << "block at " << offset;
      if (contents.heap_allocated) {
        delete[] contents.data.data();
      }
      cache->Release(h);
      offset += StoredBlockSize(file.get(), handle);
      blocks++;
    }
    EXPECT_GT(blocks, 10);
    EXPECT_EQ(meta.file_size - meta.tail_size, offset);
  }
}

}  // namespace
}  // namespace shield
