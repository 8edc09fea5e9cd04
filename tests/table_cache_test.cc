// The table cache through the public DB interface: open tables stay
// open across Gets, and shared tables serve readers on several threads
// while a writer flushes and compacts under them.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "env/env.h"
#include "gtest/gtest.h"
#include "lsm/db.h"
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

}  // namespace
}  // namespace shield
