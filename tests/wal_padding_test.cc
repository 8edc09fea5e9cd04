// WAL record padding (EncryptionOptions::wal_padding_buckets) at the
// DB level: padded, encrypted WALs must replay identically on crash
// recovery and on read-only replica catch-up — the padding envelope is
// a wire format detail that must never change what a reader recovers.
// Exercised across bucket ladders × both WAL formats (v1 CTR-only and
// v2 authenticated), with ticker assertions proving the padding was
// actually on the wire.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "env/fault_injection_env.h"
#include "gtest/gtest.h"
#include "kds/local_kds.h"
#include "lsm/db.h"
#include "lsm/write_batch.h"
#include "test_util.h"
#include "util/random.h"
#include "util/statistics.h"

namespace shield {
namespace {

struct PaddingParam {
  std::vector<uint32_t> buckets;
  bool authenticate;
  const char* name;
};

class WalPaddingTest : public ::testing::TestWithParam<PaddingParam> {
 protected:
  WalPaddingTest() : env_(NewMemEnv()), kds_(std::make_shared<LocalKds>()) {}

  Options MakeOptions(Env* env) {
    Options options;
    options.env = env;
    options.write_buffer_size = 256 * 1024;
    options.encryption.mode = EncryptionMode::kShield;
    options.encryption.kds = kds_;
    options.encryption.encrypt_wal = true;
    options.encryption.authenticate_blocks = GetParam().authenticate;
    options.encryption.wal_padding_buckets = GetParam().buckets;
    options.statistics = stats_;
    return options;
  }

  std::unique_ptr<Env> env_;
  std::shared_ptr<LocalKds> kds_;
  std::shared_ptr<Statistics> stats_ = CreateDBStatistics();
};

// Crash mid-stream (FaultInjectionEnv drops everything not synced) and
// recover: every synced write survives WAL replay, and the padding
// tickers prove padded records were on the wire. The writes overflow
// the write buffer, so the crash image also holds flushed SSTs and
// the WALs that flushes left behind.
TEST_P(WalPaddingTest, CrashRecoveryReplaysPaddedWal) {
  FaultInjectionOptions fopts;
  fopts.seed = GetParam().authenticate ? 11 : 23;
  FaultInjectionEnv fenv(env_.get(), fopts);

  Options options = MakeOptions(&fenv);
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);

  WriteOptions synced;
  synced.sync = true;
  std::map<std::string, std::string> model;
  Random rnd(GetParam().authenticate ? 11 : 23);
  for (int i = 0; i < 400; i++) {
    const std::string key = "key" + std::to_string(i);
    // Spread values across bucket boundaries (and past the largest
    // bucket) so every padding path is on the replayed wire.
    const std::string value(1 + rnd.Uniform(6000), 'a' + i % 26);
    ASSERT_TRUE(db->Put(synced, key, value).ok());
    model[key] = value;
  }
  EXPECT_GT(stats_->GetTickerCount(Tickers::kShieldWalPaddingRecords), 0u);
  EXPECT_GT(stats_->GetTickerCount(Tickers::kShieldWalPaddingBytes), 0u);

  db.reset();  // release file handles; crash semantics come from fenv
  ASSERT_TRUE(fenv.SimulateCrash().ok());

  raw = nullptr;
  Status s = DB::Open(options, "/db", &raw);
  ASSERT_TRUE(s.ok()) << s.ToString();
  db.reset(raw);
  for (const auto& kv : model) {
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), kv.first, &value).ok())
        << "lost synced key " << kv.first;
    EXPECT_EQ(kv.second, value);
  }
}

// Clean close without a flush: reopening replays the padded WAL from
// its beginning (the padding-strip path with no torn tail).
TEST_P(WalPaddingTest, ReopenReplaysPaddedWal) {
  Options options = MakeOptions(env_.get());
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);

  std::map<std::string, std::string> model;
  for (int i = 0; i < 200; i++) {
    const std::string key = "key" + std::to_string(i);
    const std::string value(32 + (i * 97) % 3000, 'b' + i % 20);
    ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
    model[key] = value;
  }
  db.reset();

  raw = nullptr;
  ASSERT_TRUE(DB::Open(MakeOptions(env_.get()), "/db", &raw).ok());
  db.reset(raw);
  for (const auto& kv : model) {
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), kv.first, &value).ok())
        << "lost key " << kv.first;
    EXPECT_EQ(kv.second, value);
  }
}

// A read-only replica catching up over the writer's live padded WAL:
// TryCatchUp re-reads the encrypted WAL; every batch must come through
// whole with the padding stripped.
TEST_P(WalPaddingTest, ReplicaCatchUpOverPaddedWal) {
  Options options = MakeOptions(env_.get());
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  std::unique_ptr<DB> writer(raw);
  ASSERT_TRUE(writer->Flush().ok());  // publish an initial manifest

  raw = nullptr;
  ASSERT_TRUE(DB::OpenReadOnly(MakeOptions(env_.get()), "/db", &raw).ok());
  std::unique_ptr<DB> replica(raw);

  std::map<std::string, std::string> model;
  for (int round = 0; round < 4; round++) {
    WriteBatch batch;
    for (int i = 0; i < 50; i++) {
      const std::string key =
          "r" + std::to_string(round) + "-key" + std::to_string(i);
      const std::string value(16 + (i * 131) % 4500, 'c' + i % 20);
      batch.Put(key, value);
      model[key] = value;
    }
    // Synced: the WAL encryption buffer (Section 5.3) only guarantees
    // bytes are on the wire after a sync, and the replica can only
    // catch up to what is physically on the wire.
    WriteOptions synced;
    synced.sync = true;
    ASSERT_TRUE(writer->Write(synced, &batch).ok());

    ASSERT_TRUE(replica->TryCatchUp().ok());
    for (const auto& kv : model) {
      std::string value;
      ASSERT_TRUE(replica->Get(ReadOptions(), kv.first, &value).ok())
          << "replica missing " << kv.first << " after round " << round;
      EXPECT_EQ(kv.second, value);
    }
  }
  EXPECT_GT(stats_->GetTickerCount(Tickers::kShieldWalPaddingRecords), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Formats, WalPaddingTest,
    ::testing::Values(
        PaddingParam{{256}, true, "auth_single256"},
        PaddingParam{{4096}, true, "auth_single4k"},
        PaddingParam{{64, 256, 1024, 4096}, true, "auth_ladder"},
        PaddingParam{{64, 256, 1024, 4096}, false, "v1_ladder"},
        PaddingParam{{512}, false, "v1_single512"}),
    [](const ::testing::TestParamInfo<PaddingParam>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace shield
