#include "lsm/db.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>

#include "gtest/gtest.h"
#include "test_util.h"
#include "util/random.h"
#include "util/statistics.h"

namespace shield {
namespace {

class DBTest : public ::testing::Test {
 protected:
  DBTest() : env_(NewMemEnv()) {
    options_.env = env_.get();
    options_.write_buffer_size = 256 * 1024;
    options_.block_cache_size = 1 << 20;
  }

  ~DBTest() override { Close(); }

  void Open() {
    Close();
    DB* db = nullptr;
    Status s = DB::Open(options_, "/db", &db);
    ASSERT_TRUE(s.ok()) << s.ToString();
    db_.reset(db);
  }

  void Reopen() { Open(); }
  void Close() { db_.reset(); }

  Status Put(const std::string& key, const std::string& value) {
    return db_->Put(WriteOptions(), key, value);
  }
  Status Delete(const std::string& key) {
    return db_->Delete(WriteOptions(), key);
  }
  std::string Get(const std::string& key) {
    std::string value;
    Status s = db_->Get(ReadOptions(), key, &value);
    if (s.IsNotFound()) {
      return "NOT_FOUND";
    }
    if (!s.ok()) {
      return "ERROR: " + s.ToString();
    }
    return value;
  }

  int NumFilesAtLevel(int level) {
    std::string value;
    EXPECT_TRUE(db_->GetProperty(
        "shield.num-files-at-level" + std::to_string(level), &value));
    return atoi(value.c_str());
  }

  std::unique_ptr<Env> env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(DBTest, OpenAndClose) {
  Open();
  EXPECT_NE(nullptr, db_);
}

TEST_F(DBTest, PutGetDelete) {
  Open();
  ASSERT_TRUE(Put("foo", "v1").ok());
  EXPECT_EQ("v1", Get("foo"));
  ASSERT_TRUE(Put("foo", "v2").ok());
  EXPECT_EQ("v2", Get("foo"));
  ASSERT_TRUE(Delete("foo").ok());
  EXPECT_EQ("NOT_FOUND", Get("foo"));
  EXPECT_EQ("NOT_FOUND", Get("never-written"));
}

TEST_F(DBTest, EmptyKeyAndValue) {
  Open();
  ASSERT_TRUE(Put("", "empty-key-value").ok());
  EXPECT_EQ("empty-key-value", Get(""));
  ASSERT_TRUE(Put("empty-value", "").ok());
  EXPECT_EQ("", Get("empty-value"));
}

TEST_F(DBTest, WriteBatchAtomicity) {
  Open();
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Delete("a");
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
  EXPECT_EQ("NOT_FOUND", Get("a"));
  EXPECT_EQ("2", Get("b"));
}

TEST_F(DBTest, GetFromFlushedFile) {
  Open();
  ASSERT_TRUE(Put("persisted", "on-disk").ok());
  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_EQ(1, NumFilesAtLevel(0));
  EXPECT_EQ("on-disk", Get("persisted"));
}

TEST_F(DBTest, TableCacheTickersCountEveryLookup) {
  Open();
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(Put("key" + std::to_string(100 + i), "v" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren("/db", &children).ok());
  ASSERT_EQ(1, std::count_if(children.begin(), children.end(),
                             [](const std::string& name) {
                               return name.size() > 4 &&
                                      name.substr(name.size() - 4) == ".sst";
                             }));
  options_.statistics = CreateDBStatistics();
  Reopen();
  Statistics* stats = options_.statistics.get();
  auto lookups = [stats] {
    return stats->GetTickerCount(Tickers::kLsmTableCacheHit) +
           stats->GetTickerCount(Tickers::kLsmTableCacheMiss);
  };
  const uint64_t before = lookups();

  // The first Get after open finds no reader cached: one miss, which
  // opens the table.
  EXPECT_EQ("v7", Get("key107"));
  EXPECT_EQ(1u, stats->GetTickerCount(Tickers::kLsmTableCacheMiss));
  EXPECT_EQ(0u, stats->GetTickerCount(Tickers::kLsmTableCacheHit));

  // Every Get of a key in the table's range looks it up once, hit or
  // miss; a key outside the range never reaches the table cache.
  for (int i = 0; i < 20; i++) {
    EXPECT_EQ("v" + std::to_string(i), Get("key" + std::to_string(100 + i)));
  }
  EXPECT_EQ("NOT_FOUND", Get("zzz"));
  EXPECT_EQ(before + 21, lookups());

  std::string metrics;
  ASSERT_TRUE(db_->GetProperty("shield.metrics", &metrics));
  EXPECT_NE(std::string::npos, metrics.find("shield_lsm_table_cache_miss"));
  EXPECT_NE(std::string::npos, metrics.find("shield_lsm_table_cache_hit"));
}

TEST_F(DBTest, RecoveryFromWal) {
  Open();
  ASSERT_TRUE(Put("durable", "value").ok());
  ASSERT_TRUE(Put("other", "data").ok());
  Reopen();  // WAL replay
  EXPECT_EQ("value", Get("durable"));
  EXPECT_EQ("data", Get("other"));
}

TEST_F(DBTest, RecoveryFromSstAndWal) {
  Open();
  ASSERT_TRUE(Put("in-sst", "flushed").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(Put("in-wal", "logged").ok());
  Reopen();
  EXPECT_EQ("flushed", Get("in-sst"));
  EXPECT_EQ("logged", Get("in-wal"));
}

TEST_F(DBTest, RecoveryPreservesDeletes) {
  Open();
  ASSERT_TRUE(Put("k", "v").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(Delete("k").ok());
  Reopen();
  EXPECT_EQ("NOT_FOUND", Get("k"));
}

TEST_F(DBTest, MultipleReopens) {
  Open();
  for (int round = 0; round < 3; round++) {
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(
          Put("key" + std::to_string(i), "round" + std::to_string(round))
              .ok());
    }
    Reopen();
    for (int i = 0; i < 100; i++) {
      EXPECT_EQ("round" + std::to_string(round),
                Get("key" + std::to_string(i)));
    }
  }
}

TEST_F(DBTest, CompactionTriggersAndPreservesData) {
  options_.write_buffer_size = 64 * 1024;
  Open();
  std::map<std::string, std::string> model;
  Random rnd(301);
  for (int i = 0; i < 5000; i++) {
    const std::string key = "key" + std::to_string(rnd.Uniform(2000));
    const std::string value =
        "value" + std::to_string(i) + std::string(100, 'x');
    model[key] = value;
    ASSERT_TRUE(Put(key, value).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  for (const auto& [key, value] : model) {
    ASSERT_EQ(value, Get(key)) << key;
  }
}

TEST_F(DBTest, CompactRangeMovesDataDown) {
  options_.write_buffer_size = 64 * 1024;
  Open();
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(
        Put("key" + std::to_string(i), std::string(100, 'v')).ok());
  }
  ASSERT_TRUE(db_->CompactRange(nullptr, nullptr).ok());
  EXPECT_EQ(0, NumFilesAtLevel(0));
  int files_below = 0;
  for (int level = 1; level < 7; level++) {
    files_below += NumFilesAtLevel(level);
  }
  EXPECT_GT(files_below, 0);
  for (int i = 0; i < 2000; i++) {
    ASSERT_EQ(std::string(100, 'v'), Get("key" + std::to_string(i)));
  }
}

TEST_F(DBTest, IteratorFullScan) {
  Open();
  std::map<std::string, std::string> model;
  for (int i = 0; i < 500; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%05d", i);
    model[key] = "v" + std::to_string(i);
    ASSERT_TRUE(Put(key, model[key]).ok());
  }
  // Half in SSTs, half in memtable.
  ASSERT_TRUE(db_->Flush().ok());
  for (int i = 500; i < 1000; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%05d", i);
    model[key] = "v" + std::to_string(i);
    ASSERT_TRUE(Put(key, model[key]).ok());
  }

  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  iter->SeekToFirst();
  for (const auto& [key, value] : model) {
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(key, iter->key().ToString());
    EXPECT_EQ(value, iter->value().ToString());
    iter->Next();
  }
  EXPECT_FALSE(iter->Valid());
}

TEST_F(DBTest, IteratorHidesDeletions) {
  Open();
  ASSERT_TRUE(Put("a", "1").ok());
  ASSERT_TRUE(Put("b", "2").ok());
  ASSERT_TRUE(Put("c", "3").ok());
  ASSERT_TRUE(Delete("b").ok());

  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  std::vector<std::string> keys;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    keys.push_back(iter->key().ToString());
  }
  EXPECT_EQ((std::vector<std::string>{"a", "c"}), keys);
}

TEST_F(DBTest, IteratorSeekAndPrev) {
  Open();
  for (char c = 'a'; c <= 'e'; c++) {
    ASSERT_TRUE(Put(std::string(1, c), "v").ok());
  }
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  iter->Seek("c");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("c", iter->key().ToString());
  iter->Prev();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("b", iter->key().ToString());
  iter->SeekToLast();
  EXPECT_EQ("e", iter->key().ToString());
}

TEST_F(DBTest, SnapshotIsolation) {
  Open();
  ASSERT_TRUE(Put("k", "before").ok());
  const Snapshot* snapshot = db_->GetSnapshot();
  ASSERT_TRUE(Put("k", "after").ok());

  ReadOptions with_snapshot;
  with_snapshot.snapshot = snapshot;
  std::string value;
  ASSERT_TRUE(db_->Get(with_snapshot, "k", &value).ok());
  EXPECT_EQ("before", value);
  EXPECT_EQ("after", Get("k"));
  db_->ReleaseSnapshot(snapshot);
}

TEST_F(DBTest, SnapshotSurvivesFlushAndCompaction) {
  Open();
  ASSERT_TRUE(Put("k", "old").ok());
  const Snapshot* snapshot = db_->GetSnapshot();
  ASSERT_TRUE(Put("k", "new").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->CompactRange(nullptr, nullptr).ok());

  ReadOptions with_snapshot;
  with_snapshot.snapshot = snapshot;
  std::string value;
  ASSERT_TRUE(db_->Get(with_snapshot, "k", &value).ok());
  EXPECT_EQ("old", value);
  db_->ReleaseSnapshot(snapshot);
}

TEST_F(DBTest, GetProperty) {
  Open();
  std::string value;
  EXPECT_TRUE(db_->GetProperty("shield.num-files-at-level0", &value));
  EXPECT_TRUE(db_->GetProperty("shield.stats", &value));
  EXPECT_TRUE(db_->GetProperty("shield.sstables", &value));
  EXPECT_TRUE(db_->GetProperty("shield.approximate-memtable-bytes", &value));
  EXPECT_FALSE(db_->GetProperty("shield.nonexistent", &value));
  EXPECT_FALSE(db_->GetProperty("other.prefix", &value));
}

TEST_F(DBTest, CreateIfMissingFalse) {
  options_.create_if_missing = false;
  DB* db = nullptr;
  Status s = DB::Open(options_, "/nonexistent", &db);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(nullptr, db);
}

TEST_F(DBTest, ErrorIfExists) {
  Open();
  Close();
  options_.error_if_exists = true;
  DB* db = nullptr;
  Status s = DB::Open(options_, "/db", &db);
  EXPECT_FALSE(s.ok());
}

TEST_F(DBTest, DestroyDBRemovesEverything) {
  Open();
  ASSERT_TRUE(Put("k", "v").ok());
  ASSERT_TRUE(db_->Flush().ok());
  Close();
  ASSERT_TRUE(DestroyDB(options_, "/db").ok());
  std::vector<std::string> children;
  env_->GetChildren("/db", &children);
  EXPECT_TRUE(children.empty());
}

TEST_F(DBTest, ConcurrentWriters) {
  Open();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([this, t] {
      for (int i = 0; i < 250; i++) {
        const std::string key =
            "t" + std::to_string(t) + "-" + std::to_string(i);
        ASSERT_TRUE(Put(key, key + "-value").ok());
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (int t = 0; t < 4; t++) {
    for (int i = 0; i < 250; i++) {
      const std::string key =
          "t" + std::to_string(t) + "-" + std::to_string(i);
      ASSERT_EQ(key + "-value", Get(key));
    }
  }
}

TEST_F(DBTest, ReadWhileWriting) {
  Open();
  constexpr int kKeys = 2000;
  auto key = [](int i) { return "w" + std::to_string(i); };
  auto value = [](int i) { return std::to_string(i) + std::string(100, 'x'); };
  // The reader's first Get runs before the writer exists, so reads and
  // writes overlap however the threads are scheduled. Every Get must
  // see a key either absent or with exactly the value written.
  int reads = 0;
  auto check_read = [&](int i) {
    const std::string got = Get(key(i));
    EXPECT_TRUE(got == "NOT_FOUND" || got == value(i))
        << key(i) << " read as " << got.substr(0, 40);
    reads++;
  };
  check_read(0);
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < kKeys; i++) {
      EXPECT_TRUE(Put(key(i), value(i)).ok());
    }
    done.store(true);
  });
  while (!done.load()) {
    check_read(reads % kKeys);
  }
  writer.join();
  for (int i = 0; i < kKeys; i++) {
    ASSERT_EQ(value(i), Get(key(i)));
  }
}

// --- Compaction styles (parameterized) ------------------------------------

class CompactionStyleTest
    : public ::testing::TestWithParam<CompactionStyle> {};

TEST_P(CompactionStyleTest, WriteHeavyWorkloadStaysCorrect) {
  auto env = NewMemEnv();
  Options options;
  options.env = env.get();
  options.write_buffer_size = 32 * 1024;
  options.compaction_style = GetParam();
  options.level0_file_num_compaction_trigger = 4;
  // FIFO with a generous budget so nothing is dropped mid-test.
  options.fifo_max_table_files_size = 64 << 20;

  DB* raw_db = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw_db).ok());
  std::unique_ptr<DB> db(raw_db);

  std::map<std::string, std::string> model;
  Random rnd(7);
  for (int i = 0; i < 3000; i++) {
    const std::string key = "key" + std::to_string(rnd.Uniform(1000));
    const std::string value = "v" + std::to_string(i) + std::string(64, 'p');
    model[key] = value;
    ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
  }
  ASSERT_TRUE(db->Flush().ok());

  for (const auto& [key, value] : model) {
    std::string got;
    ASSERT_TRUE(db->Get(ReadOptions(), key, &got).ok()) << key;
    EXPECT_EQ(value, got);
  }
}

TEST_P(CompactionStyleTest, SurvivesReopen) {
  auto env = NewMemEnv();
  Options options;
  options.env = env.get();
  options.write_buffer_size = 32 * 1024;
  options.compaction_style = GetParam();
  options.fifo_max_table_files_size = 64 << 20;

  {
    DB* raw_db = nullptr;
    ASSERT_TRUE(DB::Open(options, "/db", &raw_db).ok());
    std::unique_ptr<DB> db(raw_db);
    for (int i = 0; i < 1000; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), "key" + std::to_string(i),
                          std::string(64, 'd'))
                      .ok());
    }
  }
  DB* raw_db = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw_db).ok());
  std::unique_ptr<DB> db(raw_db);
  for (int i = 0; i < 1000; i++) {
    std::string value;
    ASSERT_TRUE(
        db->Get(ReadOptions(), "key" + std::to_string(i), &value).ok());
    EXPECT_EQ(std::string(64, 'd'), value);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Styles, CompactionStyleTest,
    ::testing::Values(CompactionStyle::kLeveled, CompactionStyle::kUniversal,
                      CompactionStyle::kFifo),
    [](const ::testing::TestParamInfo<CompactionStyle>& info) {
      switch (info.param) {
        case CompactionStyle::kLeveled:
          return "Leveled";
        case CompactionStyle::kUniversal:
          return "Universal";
        case CompactionStyle::kFifo:
          return "Fifo";
      }
      return "Unknown";
    });

TEST(FifoTest, DropsOldestFilesOverBudget) {
  auto env = NewMemEnv();
  Options options;
  options.env = env.get();
  options.write_buffer_size = 32 * 1024;
  options.compaction_style = CompactionStyle::kFifo;
  options.fifo_max_table_files_size = 128 * 1024;  // tiny budget

  DB* raw_db = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw_db).ok());
  std::unique_ptr<DB> db(raw_db);
  for (int i = 0; i < 20000; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), "key" + std::to_string(i),
                        std::string(64, 'f'))
                    .ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  db->WaitForIdle();  // let FIFO eviction run to completion
  std::string value;
  Status newest = db->Get(ReadOptions(), "key19999", &value);
  EXPECT_TRUE(newest.ok()) << newest.ToString();
  // The earliest keys should have been dropped with their files.
  int found = 0;
  for (int i = 0; i < 100; i++) {
    if (db->Get(ReadOptions(), "key" + std::to_string(i), &value).ok()) {
      found++;
    }
  }
  EXPECT_LT(found, 100);
}

}  // namespace
}  // namespace shield
