// Behavioural tests of compaction picking and versioning, driven
// through the public DB interface plus direct VersionSet interactions.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <mutex>

#include "gtest/gtest.h"
#include "lsm/compaction_service.h"
#include "lsm/db.h"
#include "lsm/db_impl.h"
#include "test_util.h"
#include "util/random.h"

namespace shield {
namespace {

class CompactionBehaviorTest : public ::testing::Test {
 protected:
  CompactionBehaviorTest() : env_(NewMemEnv()) {
    options_.env = env_.get();
    options_.write_buffer_size = 16 * 1024;
    options_.level0_file_num_compaction_trigger = 4;
    options_.target_file_size_base = 64 * 1024;
  }

  void Open() {
    db_.reset();
    DB* db = nullptr;
    ASSERT_TRUE(DB::Open(options_, "/db", &db).ok());
    db_.reset(db);
  }

  int FilesAt(int level) {
    std::string value;
    EXPECT_TRUE(db_->GetProperty(
        "shield.num-files-at-level" + std::to_string(level), &value));
    return atoi(value.c_str());
  }

  int TotalFiles() {
    int total = 0;
    for (int level = 0; level < 7; level++) {
      total += FilesAt(level);
    }
    return total;
  }

  std::unique_ptr<Env> env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(CompactionBehaviorTest, LeveledKeepsL0Bounded) {
  Open();
  Random rnd(1);
  for (int i = 0; i < 20000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "key" + std::to_string(rnd.Uniform(5000)),
                         std::string(64, 'l'))
                    .ok());
  }
  db_->Flush();
  db_->WaitForIdle();
  // After quiescing, leveled compaction must have pushed data down.
  EXPECT_LT(FilesAt(0), options_.level0_file_num_compaction_trigger);
  int below = 0;
  for (int level = 1; level < 7; level++) {
    below += FilesAt(level);
  }
  EXPECT_GT(below, 0);
}

TEST_F(CompactionBehaviorTest, UniversalBoundsSortedRuns) {
  options_.compaction_style = CompactionStyle::kUniversal;
  options_.universal_max_sorted_runs = 6;
  Open();
  Random rnd(2);
  for (int i = 0; i < 20000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "key" + std::to_string(rnd.Uniform(5000)),
                         std::string(64, 'u'))
                    .ok());
  }
  db_->Flush();
  db_->WaitForIdle();
  // All data stays in level 0 (sorted runs), bounded in count.
  EXPECT_LE(FilesAt(0), options_.universal_max_sorted_runs + 1);
  for (int level = 1; level < 7; level++) {
    EXPECT_EQ(0, FilesAt(level));
  }
}

TEST_F(CompactionBehaviorTest, UniversalPreservesRecencyAcrossMerges) {
  // Regression test: universal compaction must merge an age-contiguous
  // NEWEST prefix of runs — merging old runs into a higher-numbered
  // file would make stale values shadow newer ones.
  options_.compaction_style = CompactionStyle::kUniversal;
  options_.level0_file_num_compaction_trigger = 3;
  Open();

  // Round 1: write v1 for all keys, flushed to run A.
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), "key" + std::to_string(i), "v1").ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  // Rounds 2..6: overwrite with v2..v6, each flushed to its own run,
  // triggering several universal merges along the way.
  for (int round = 2; round <= 6; round++) {
    for (int i = 0; i < 200; i++) {
      ASSERT_TRUE(db_->Put(WriteOptions(), "key" + std::to_string(i),
                           "v" + std::to_string(round))
                      .ok());
    }
    ASSERT_TRUE(db_->Flush().ok());
    db_->WaitForIdle();
  }
  for (int i = 0; i < 200; i++) {
    std::string value;
    ASSERT_TRUE(
        db_->Get(ReadOptions(), "key" + std::to_string(i), &value).ok());
    EXPECT_EQ("v6", value) << "key" << i;
  }
}

TEST_F(CompactionBehaviorTest, FifoNeverMovesFilesDown) {
  options_.compaction_style = CompactionStyle::kFifo;
  options_.fifo_max_table_files_size = 1ull << 30;
  Open();
  for (int i = 0; i < 10000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "key" + std::to_string(i),
                         std::string(64, 'f'))
                    .ok());
  }
  db_->Flush();
  db_->WaitForIdle();
  for (int level = 1; level < 7; level++) {
    EXPECT_EQ(0, FilesAt(level));
  }
  EXPECT_GT(FilesAt(0), 1);
}

TEST_F(CompactionBehaviorTest, FifoEvictionReducesFileCount) {
  options_.compaction_style = CompactionStyle::kFifo;
  options_.fifo_max_table_files_size = 64 * 1024;
  Open();
  for (int i = 0; i < 15000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "key" + std::to_string(i),
                         std::string(64, 'e'))
                    .ok());
  }
  db_->Flush();
  db_->WaitForIdle();
  // Total on-disk size respects the budget (within one file's slack).
  std::string value;
  int64_t total = 0;
  {
    // Sum the level-0 file sizes via the debug property.
    ASSERT_TRUE(db_->GetProperty("shield.sstables", &value));
  }
  // Cheap proxy: the newest keys must be present, oldest gone.
  ASSERT_TRUE(db_->Get(ReadOptions(), "key14999", &value).ok());
  EXPECT_TRUE(db_->Get(ReadOptions(), "key0", &value).IsNotFound());
  (void)total;
}

TEST_F(CompactionBehaviorTest, DeleteHeavyWorkloadCompactsAway) {
  Open();
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "key" + std::to_string(i),
                         std::string(100, 'd'))
                    .ok());
  }
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db_->Delete(WriteOptions(), "key" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db_->CompactRange(nullptr, nullptr).ok());
  db_->WaitForIdle();

  // Everything deleted and tombstones dropped at the bottom level: the
  // iterator sees nothing.
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  iter->SeekToFirst();
  EXPECT_FALSE(iter->Valid());
}

TEST_F(CompactionBehaviorTest, RangeLimitedManualCompaction) {
  Open();
  for (int i = 0; i < 1000; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%04d", i);
    ASSERT_TRUE(db_->Put(WriteOptions(), key, std::string(64, 'r')).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  const Slice begin("k0100");
  const Slice end("k0200");
  ASSERT_TRUE(db_->CompactRange(&begin, &end).ok());
  // All data still present.
  std::string value;
  for (int i : {0, 150, 999}) {
    char key[16];
    snprintf(key, sizeof(key), "k%04d", i);
    ASSERT_TRUE(db_->Get(ReadOptions(), key, &value).ok()) << key;
  }
}

TEST_F(CompactionBehaviorTest, OverwriteHeavyWorkloadShrinks) {
  Open();
  // Write each key 10 times, then force a full merge: dead versions
  // must be dropped (bytes shrink well below raw write volume).
  for (int round = 0; round < 10; round++) {
    for (int i = 0; i < 500; i++) {
      ASSERT_TRUE(db_->Put(WriteOptions(), "key" + std::to_string(i),
                           std::string(200, static_cast<char>('a' + round)))
                      .ok());
    }
  }
  ASSERT_TRUE(db_->CompactRange(nullptr, nullptr).ok());
  db_->WaitForIdle();
  // 500 keys x ~210 B ~= 105 KiB of live data; with 10x overwrites the
  // raw volume was ~1 MiB. After a full merge the file count should be
  // tiny and every key must carry the final round's value.
  EXPECT_LE(TotalFiles(), 3);
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), "key250", &value).ok());
  EXPECT_EQ(std::string(200, 'j'), value);
}

TEST_F(CompactionBehaviorTest, OverwriteWorkloadBoundsSpaceAmplification) {
  // Bottom-up level targets: the last level holds the data and each
  // level above it targets a tenth of the level below, so once drained
  // the levels above the last add about 1/9 of the data, plus what L0
  // holds below its trigger. Static targets let overwrites pile up
  // above the bottom level instead.
  options_.write_buffer_size = 64 * 1024;
  options_.target_file_size_base = 64 * 1024;
  options_.max_bytes_for_level_base = 256 * 1024;
  Open();
  constexpr int kKeys = 16000;
  constexpr size_t kValueSize = 400;
  Random rnd(7);
  for (int i = 0; i < 4 * kKeys; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%07d", static_cast<int>(rnd.Uniform(kKeys)));
    ASSERT_TRUE(db_->Put(WriteOptions(), key,
                         std::string(kValueSize, static_cast<char>('a' + i % 26)))
                    .ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  db_->WaitForIdle();

  uint64_t live_bytes = 0;
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren("/db", &children).ok());
  for (const std::string& child : children) {
    uint64_t size = 0;
    if (child.size() > 4 && child.compare(child.size() - 4, 4, ".sst") == 0 &&
        env_->GetFileSize("/db/" + child, &size).ok()) {
      live_bytes += size;
    }
  }
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  uint64_t unique_bytes = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    unique_bytes += iter->key().size() + iter->value().size();
  }
  ASSERT_GT(unique_bytes, 0u);
  EXPECT_LE(static_cast<double>(live_bytes) / unique_bytes, 1.25)
      << live_bytes << " live bytes for " << unique_bytes << " unique";
}

// --- Background lanes and the compaction slot ---------------------------

// Holds every offloaded compaction until Open(), then fails it
// transiently, so the DB falls back to running the job locally.
class GatedCompactionService final : public CompactionService {
 public:
  Status RunCompaction(const CompactionJobSpec& /*job*/,
                       CompactionJobResult* /*result*/) override {
    std::unique_lock<std::mutex> lock(mu_);
    calls_++;
    running_++;
    max_running_ = std::max(max_running_, running_);
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
    running_--;
    return Status::TryAgain("gated compaction service");
  }

  // Waits up to `timeout` for the service's `n`-th call.
  bool WaitForCalls(int n, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return calls_ >= n; });
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

  int max_running() {
    std::lock_guard<std::mutex> lock(mu_);
    return max_running_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  int calls_ = 0;
  int running_ = 0;
  int max_running_ = 0;
};

// Generous: these waits end at once unless the engine is at fault.
constexpr std::chrono::seconds kLaneTimeout{20};

class CompactionLaneTest : public CompactionBehaviorTest {
 protected:
  ~CompactionLaneTest() override {
    service_.Open();  // a held job would block the close
    db_.reset();
  }

  void Put(int i, int round) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "key" + std::to_string(i),
                         "v" + std::to_string(round))
                    .ok());
  }

  // Opens the DB and leaves a background compaction held in the
  // service. Both flushes write the same keys, so the compaction merges
  // overlapping files: no trivial move, which would skip the service.
  void OpenWithHeldCompaction() {
    options_.compaction_service = &service_;
    options_.level0_file_num_compaction_trigger = 2;
    Open();
    for (int round = 0; round < 2; round++) {
      for (int i = 0; i < 100; i++) {
        ASSERT_NO_FATAL_FAILURE(Put(i, round));
      }
      ASSERT_TRUE(db_->Flush().ok());
    }
    ASSERT_TRUE(service_.WaitForCalls(1, kLaneTimeout));
  }

  void ExpectRound(int round) {
    for (int i = 0; i < 100; i++) {
      std::string value;
      ASSERT_TRUE(
          db_->Get(ReadOptions(), "key" + std::to_string(i), &value).ok())
          << i;
      EXPECT_EQ("v" + std::to_string(round), value) << i;
    }
  }

  GatedCompactionService service_;
};

TEST_F(CompactionLaneTest, FlushRunsWhileCompactionIsHeld) {
  ASSERT_NO_FATAL_FAILURE(OpenWithHeldCompaction());
  for (int i = 0; i < 100; i++) {
    ASSERT_NO_FATAL_FAILURE(Put(i, 2));
  }
  // The flush has its own lane: it must not queue behind the held job.
  std::future<Status> flushed =
      std::async(std::launch::async, [this] { return db_->Flush(); });
  const bool in_time =
      flushed.wait_for(kLaneTimeout) == std::future_status::ready;
  service_.Open();
  EXPECT_TRUE(in_time);
  const Status s = flushed.get();
  EXPECT_TRUE(s.ok()) << s.ToString();
  db_->WaitForIdle();
  ExpectRound(2);
}

TEST_F(CompactionLaneTest, CompactRangeWaitsForTheCompactionSlot) {
  ASSERT_NO_FATAL_FAILURE(OpenWithHeldCompaction());
  std::future<Status> compacted = std::async(
      std::launch::async, [this] { return db_->CompactRange(nullptr, nullptr); });
  // A second job reaching the service would be CompactRange's,
  // overlapping the held one.
  EXPECT_FALSE(service_.WaitForCalls(2, std::chrono::milliseconds(200)));
  service_.Open();
  const Status s = compacted.get();
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(1, service_.max_running());
  ExpectRound(1);
}

}  // namespace
}  // namespace shield
