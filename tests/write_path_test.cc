// Write-path tests: group-commit semantics, failure atomicity, and
// crash recovery from a padded, encrypted WAL.
//
// The multi-writer stress case is deliberately scheduled into the
// TSan CI job: the group-commit queue (leader hand-off and early
// release) is the write path's lock-heavy concurrency, and the stress
// case drives it from 8 threads.

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "env/fault_injection_env.h"
#include "gtest/gtest.h"
#include "kds/local_kds.h"
#include "lsm/db.h"
#include "test_util.h"
#include "util/random.h"
#include "util/statistics.h"

namespace shield {
namespace {

std::string Prop(DB* db, const char* name) {
  std::string value;
  EXPECT_TRUE(db->GetProperty(name, &value)) << name;
  return value;
}

// A failed write must not advance the published sequence: sequence
// numbers are allocated inside the write path, and publishing one for
// a batch that never landed would stand for data that does not exist
// (snapshots and replicas key off it).
TEST(WritePathTest, FailedWriteDoesNotAdvanceSequence) {
  auto base = NewMemEnv();
  FaultInjectionOptions fopts;
  fopts.seed = 7;
  fopts.write_error_probability = 1.0;
  fopts.permanent_error_ratio = 1.0;
  FaultInjectionEnv fenv(base.get(), fopts);
  fenv.SetFaultsEnabled(false);

  Options options;
  options.env = &fenv;
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);

  ASSERT_TRUE(db->Put(WriteOptions(), "a", "1").ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "b", "2").ok());
  const std::string seq_before = Prop(db.get(), "shield.last-sequence");

  fenv.SetFaultsEnabled(true);
  WriteBatch batch;
  batch.Put("c", "3");
  batch.Put("d", "4");
  ASSERT_FALSE(db->Write(WriteOptions(), &batch).ok());
  fenv.SetFaultsEnabled(false);

  EXPECT_EQ(seq_before, Prop(db.get(), "shield.last-sequence"));
  std::string got;
  EXPECT_TRUE(db->Get(ReadOptions(), "c", &got).IsNotFound());
  EXPECT_TRUE(db->Get(ReadOptions(), "d", &got).IsNotFound());
}

// With the memtable applied before the WAL sync, a corrupt batch must
// be rejected up front: nothing from it may become visible and the
// sequence must not move (all-or-nothing at group granularity).
TEST(WritePathTest, CorruptBatchIsAllOrNothing) {
  auto env = NewMemEnv();
  Options options;
  options.env = env.get();
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);

  ASSERT_TRUE(db->Put(WriteOptions(), "a", "1").ok());
  const std::string seq_before = Prop(db.get(), "shield.last-sequence");

  // A batch whose header claims more records than its body carries.
  WriteBatch good;
  good.Put("x", "1");
  good.Put("y", "2");
  std::string rep = good.Contents().ToString();
  WriteBatch corrupt;
  corrupt.SetContents(Slice(rep.data(), rep.size() - 3));
  ASSERT_FALSE(db->Write(WriteOptions(), &corrupt).ok());

  EXPECT_EQ(seq_before, Prop(db.get(), "shield.last-sequence"));
  std::string got;
  EXPECT_TRUE(db->Get(ReadOptions(), "x", &got).IsNotFound());
  EXPECT_TRUE(db->Get(ReadOptions(), "y", &got).IsNotFound());
  // The writer is not poisoned by the rejected batch.
  EXPECT_TRUE(db->Put(WriteOptions(), "z", "3").ok());
  EXPECT_TRUE(db->Get(ReadOptions(), "z", &got).ok());
}

// After a background error taints the DB, the empty-memtable Flush
// fast path must report it instead of OK: callers use Flush() as a
// durability barrier, and "nothing to flush" is not the same as
// "everything you wrote is safe". A faulted manual compaction is the
// one failure that leaves the memtable empty while escalating a
// permanent error into the handler, so it drives the taint here.
TEST(WritePathTest, EmptyFlushReportsBackgroundError) {
  auto base = NewMemEnv();
  FaultInjectionOptions fopts;
  fopts.seed = 11;
  fopts.write_error_probability = 1.0;
  fopts.permanent_error_ratio = 1.0;
  FaultInjectionEnv fenv(base.get(), fopts);
  fenv.SetFaultsEnabled(false);

  Options options;
  options.env = &fenv;
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);

  ASSERT_TRUE(db->Flush().ok());  // clean DB: empty fast path is OK

  // Land one SST so the compaction below has an input to rewrite.
  ASSERT_TRUE(db->Put(WriteOptions(), "a", "1").ok());
  ASSERT_TRUE(db->Flush().ok());

  fenv.SetFaultsEnabled(true);
  ASSERT_FALSE(db->CompactRange(nullptr, nullptr).ok());
  fenv.SetFaultsEnabled(false);

  // The compaction consumed no writes, so the memtable is still
  // empty — but the DB is tainted and Flush must say so.
  EXPECT_FALSE(db->Flush().ok());
}

// Encrypted-WAL recovery: a crash drops unsynced bytes of a SHIELD,
// padded WAL; on reopen every synced write must be present, and the
// recovered DB must keep accepting writes and flush the replayed
// memtable into an SST.
TEST(WritePathTest, PaddedEncryptedWalCrashRecovery) {
  auto base = NewMemEnv();
  FaultInjectionOptions fopts;
  fopts.seed = 13;
  fopts.torn_write_probability = 0.0;
  FaultInjectionEnv fenv(base.get(), fopts);

  Options options;
  options.env = &fenv;
  options.write_buffer_size = 1 << 20;  // keep everything in the WAL
  options.encryption.mode = EncryptionMode::kShield;
  options.encryption.kds = std::make_shared<LocalKds>();
  options.encryption.wal_padding_buckets = {64, 256, 1024, 4096};

  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);

  WriteOptions synced;
  synced.sync = true;
  std::map<std::string, std::string> synced_model;
  Random rnd(13);
  for (int i = 0; i < 400; i++) {
    const std::string key = "key" + std::to_string(rnd.Uniform(200));
    const std::string value = "v" + std::to_string(i);
    if (i % 4 == 0) {
      ASSERT_TRUE(db->Put(synced, key, value).ok());
      synced_model[key] = value;
    } else {
      ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
      // Unsynced writes after a synced one for the same key make the
      // synced model a lower bound only; drop the key from the strict
      // check (the crash may or may not keep the newer value).
      synced_model.erase(key);
    }
  }

  db.reset();  // release file handles; crash semantics come from fenv
  ASSERT_TRUE(fenv.SimulateCrash().ok());

  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  db.reset(raw);
  for (const auto& [key, value] : synced_model) {
    std::string got;
    ASSERT_TRUE(db->Get(ReadOptions(), key, &got).ok()) << key;
    EXPECT_EQ(value, got) << key;
  }
  // The replayed memtable must flush into one coherent SST and serve
  // reads from it.
  ASSERT_TRUE(db->Put(WriteOptions(), "post-crash", "ok").ok());
  ASSERT_TRUE(db->Flush().ok());
  std::string got;
  ASSERT_TRUE(db->Get(ReadOptions(), "post-crash", &got).ok());
  EXPECT_EQ("ok", got);
  for (const auto& [key, value] : synced_model) {
    ASSERT_TRUE(db->Get(ReadOptions(), key, &got).ok()) << key;
    EXPECT_EQ(value, got) << key;
  }
}

// Seeded 8-writer stress over group commit with early release and an
// encrypted WAL. Run under TSan in CI; the assertions here are the
// correctness floor, the data-race coverage is the point.
TEST(WritePathTest, MultiWriterGroupCommitStress) {
  auto env = NewMemEnv();
  Options options;
  options.env = env.get();
  options.statistics = CreateDBStatistics();
  options.encryption.mode = EncryptionMode::kShield;
  options.encryption.kds = std::make_shared<LocalKds>();

  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 400;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      Random rnd(/*seed=*/1000 + t);
      for (int i = 0; i < kOpsPerThread; i++) {
        WriteBatch batch;
        // Private key: always verifiable. Shared key: contended
        // across threads.
        batch.Put("t" + std::to_string(t) + "-k" + std::to_string(i),
                  "v" + std::to_string(i));
        batch.Put("shared-" + std::to_string(rnd.Uniform(32)),
                  "t" + std::to_string(t));
        WriteOptions wopts;
        wopts.sync = (i % 50 == 0);
        if (!db->Write(wopts, &batch).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  ASSERT_EQ(0, failures.load());

  // Every acknowledged private key is visible.
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kOpsPerThread; i += 37) {
      const std::string key =
          "t" + std::to_string(t) + "-k" + std::to_string(i);
      std::string got;
      ASSERT_TRUE(db->Get(ReadOptions(), key, &got).ok()) << key;
      EXPECT_EQ("v" + std::to_string(i), got);
    }
  }

  // The group-commit tickers are wired: every write belongs to some
  // group and groups cover all acknowledged batches.
  const uint64_t groups =
      options.statistics->GetTickerCount(Tickers::kLsmWriteGroups);
  const uint64_t grouped =
      options.statistics->GetTickerCount(Tickers::kLsmWriteGroupSize);
  EXPECT_GT(groups, 0u);
  EXPECT_GE(grouped, static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_GE(grouped, groups);

  // Drain the memtable through a flush and re-check through the SST
  // path.
  ASSERT_TRUE(db->Flush().ok());
  for (int t = 0; t < kThreads; t++) {
    const std::string key = "t" + std::to_string(t) + "-k0";
    std::string got;
    ASSERT_TRUE(db->Get(ReadOptions(), key, &got).ok()) << key;
    EXPECT_EQ("v0", got);
  }
}

}  // namespace
}  // namespace shield
