// Concurrency stress regressions. These loops reproduced (before the
// fixes) two real races:
//  1. concurrent flush + compaction interleaving their manifest writes
//     (LogAndApply is now serialized), and
//  2. a flushed SST leaving pending_outputs_ before being installed,
//     letting a concurrently-finishing compaction's GC delete it.
// Both manifested as background NotFound/Corruption errors surfacing
// through Put/Flush.

#include <map>

#include "gtest/gtest.h"
#include "kds/local_kds.h"
#include "lsm/db.h"
#include "test_util.h"
#include "util/random.h"

namespace shield {
namespace {

struct StressParam {
  EncryptionMode mode;
  CompactionStyle style;
  const char* name;
};

class ConcurrencyStressTest : public ::testing::TestWithParam<StressParam> {};

TEST_P(ConcurrencyStressTest, HeavyFlushAndCompactionOverlap) {
  // Tiny memtable + low trigger: flushes and compactions overlap
  // constantly on the background pool.
  for (int round = 0; round < 3; round++) {
    auto env = NewMemEnv();
    Options options;
    options.env = env.get();
    options.write_buffer_size = 16 * 1024;
    options.level0_file_num_compaction_trigger = 4;
    options.target_file_size_base = 64 * 1024;
    options.compaction_style = GetParam().style;
    options.fifo_max_table_files_size = 1ull << 30;
    options.encryption.mode = GetParam().mode;
    std::shared_ptr<Kds> kds;
    if (options.encryption.mode == EncryptionMode::kShield) {
      kds = std::make_shared<LocalKds>();
      options.encryption.kds = kds;
    }

    DB* raw_db = nullptr;
    ASSERT_TRUE(DB::Open(options, "/db", &raw_db).ok());
    std::unique_ptr<DB> db(raw_db);

    Random rnd(round + 1);
    for (int i = 0; i < 15000; i++) {
      Status s = db->Put(WriteOptions(),
                         "key" + std::to_string(rnd.Uniform(5000)),
                         std::string(64, 's'));
      ASSERT_TRUE(s.ok()) << "round " << round << " put " << i << ": "
                          << s.ToString();
    }
    Status s = db->Flush();
    ASSERT_TRUE(s.ok()) << s.ToString();
    db->WaitForIdle();

    // Spot-check reads still work after the storm.
    std::string value;
    int found = 0;
    for (int i = 0; i < 200; i++) {
      if (db->Get(ReadOptions(), "key" + std::to_string(i), &value).ok()) {
        found++;
      }
    }
    EXPECT_GT(found, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ConcurrencyStressTest,
    ::testing::Values(
        StressParam{EncryptionMode::kNone, CompactionStyle::kLeveled,
                    "PlainLeveled"},
        StressParam{EncryptionMode::kShield, CompactionStyle::kLeveled,
                    "ShieldLeveled"},
        StressParam{EncryptionMode::kShield, CompactionStyle::kUniversal,
                    "ShieldUniversal"}),
    [](const ::testing::TestParamInfo<StressParam>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace shield
