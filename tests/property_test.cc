// Property-based tests: a randomized operation stream is applied both
// to the DB and to an in-memory reference model (std::map); the two
// must agree at every checkpoint, across engines, compaction styles,
// flushes, manual compactions, iterators and reopens.

#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "crypto/aes_ctr_kernels.h"
#include "crypto/cipher.h"
#include "crypto/ghash.h"
#include "gtest/gtest.h"
#include "kds/local_kds.h"
#include "lsm/db.h"
#include "test_util.h"
#include "util/random.h"

namespace shield {
namespace {

struct PropertyParam {
  EncryptionMode mode;
  CompactionStyle style;
  size_t wal_buffer_size;
  uint64_t seed;
};

std::string ParamName(const ::testing::TestParamInfo<PropertyParam>& info) {
  std::string name;
  switch (info.param.mode) {
    case EncryptionMode::kNone:
      name += "Plain";
      break;
    case EncryptionMode::kEncFS:
      name += "EncFS";
      break;
    case EncryptionMode::kShield:
      name += "Shield";
      break;
  }
  switch (info.param.style) {
    case CompactionStyle::kLeveled:
      name += "Leveled";
      break;
    case CompactionStyle::kUniversal:
      name += "Universal";
      break;
    case CompactionStyle::kFifo:
      name += "Fifo";
      break;
  }
  name += "Seed" + std::to_string(info.param.seed);
  return name;
}

class DbModelTest : public ::testing::TestWithParam<PropertyParam> {
 protected:
  DbModelTest() : env_(NewMemEnv()) {}

  Options MakeOptions() {
    Options options;
    options.env = env_.get();
    options.write_buffer_size = 16 * 1024;  // force frequent flushes
    options.level0_file_num_compaction_trigger = 3;
    options.compaction_style = GetParam().style;
    options.fifo_max_table_files_size = 1ull << 30;  // never drop data
    options.encryption.mode = GetParam().mode;
    options.encryption.wal_buffer_size = GetParam().wal_buffer_size;
    if (GetParam().mode == EncryptionMode::kEncFS) {
      options.encryption.instance_key = std::string(16, 'p');
    }
    if (GetParam().mode == EncryptionMode::kShield) {
      if (kds_ == nullptr) {
        kds_ = std::make_shared<LocalKds>();
      }
      options.encryption.kds = kds_;
    }
    return options;
  }

  void Open() {
    db_.reset();
    DB* db = nullptr;
    Status s = DB::Open(MakeOptions(), "/db", &db);
    ASSERT_TRUE(s.ok()) << s.ToString();
    db_.reset(db);
  }

  void CheckModelMatches(const std::map<std::string, std::string>& model) {
    // Point lookups for every model key plus some absent probes.
    for (const auto& [key, value] : model) {
      std::string got;
      Status s = db_->Get(ReadOptions(), key, &got);
      ASSERT_TRUE(s.ok()) << "missing " << key << ": " << s.ToString();
      ASSERT_EQ(value, got) << key;
    }
    // Full scan equality (order + content), both directions.
    std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
    iter->SeekToFirst();
    for (const auto& [key, value] : model) {
      ASSERT_TRUE(iter->Valid()) << "iterator ended before " << key;
      ASSERT_EQ(key, iter->key().ToString());
      ASSERT_EQ(value, iter->value().ToString());
      iter->Next();
    }
    ASSERT_FALSE(iter->Valid()) << "iterator has extra keys";

    iter->SeekToLast();
    for (auto rit = model.rbegin(); rit != model.rend(); ++rit) {
      ASSERT_TRUE(iter->Valid()) << "reverse scan ended before "
                                 << rit->first;
      ASSERT_EQ(rit->first, iter->key().ToString());
      ASSERT_EQ(rit->second, iter->value().ToString());
      iter->Prev();
    }
    ASSERT_FALSE(iter->Valid()) << "reverse scan has extra keys";
  }

  std::unique_ptr<Env> env_;
  std::shared_ptr<Kds> kds_;
  std::unique_ptr<DB> db_;
};

TEST_P(DbModelTest, RandomOpsMatchReferenceModel) {
  Open();
  Random rnd(GetParam().seed);
  std::map<std::string, std::string> model;

  const int kOps = 4000;
  for (int i = 0; i < kOps; i++) {
    const int op = static_cast<int>(rnd.Uniform(100));
    const std::string key = "key" + std::to_string(rnd.Uniform(400));
    if (op < 60) {
      // Put with variable-size value.
      const std::string value =
          std::to_string(i) + std::string(rnd.Uniform(300), 'v');
      model[key] = value;
      ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
    } else if (op < 80) {
      model.erase(key);
      ASSERT_TRUE(db_->Delete(WriteOptions(), key).ok());
    } else if (op < 90) {
      // Batched update.
      WriteBatch batch;
      for (int j = 0; j < 5; j++) {
        const std::string bkey = "key" + std::to_string(rnd.Uniform(400));
        if (rnd.OneIn(4)) {
          batch.Delete(bkey);
          model.erase(bkey);
        } else {
          batch.Put(bkey, "batched" + std::to_string(i * 10 + j));
          model[bkey] = "batched" + std::to_string(i * 10 + j);
        }
      }
      ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
    } else if (op < 95) {
      // Point check of a random key.
      std::string got;
      Status s = db_->Get(ReadOptions(), key, &got);
      auto it = model.find(key);
      if (it == model.end()) {
        ASSERT_TRUE(s.IsNotFound()) << key << " " << s.ToString();
      } else {
        ASSERT_TRUE(s.ok()) << key << " " << s.ToString();
        ASSERT_EQ(it->second, got);
      }
    } else if (op < 98) {
      ASSERT_TRUE(db_->Flush().ok());
    } else {
      ASSERT_TRUE(db_->CompactRange(nullptr, nullptr).ok());
    }
  }
  CheckModelMatches(model);
}

TEST_P(DbModelTest, ModelSurvivesReopens) {
  Open();
  Random rnd(GetParam().seed + 999);
  std::map<std::string, std::string> model;
  for (int round = 0; round < 3; round++) {
    for (int i = 0; i < 800; i++) {
      const std::string key = "key" + std::to_string(rnd.Uniform(300));
      if (rnd.OneIn(5)) {
        model.erase(key);
        ASSERT_TRUE(db_->Delete(WriteOptions(), key).ok());
      } else {
        const std::string value =
            "r" + std::to_string(round) + "-" + std::to_string(i);
        model[key] = value;
        ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
      }
    }
    Open();  // reopen mid-stream: recovery must preserve the model
    CheckModelMatches(model);
  }
}

TEST_P(DbModelTest, SnapshotReadsAreFrozen) {
  Open();
  Random rnd(GetParam().seed + 7);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 300; i++) {
    const std::string key = "key" + std::to_string(i);
    model[key] = "initial";
    ASSERT_TRUE(db_->Put(WriteOptions(), key, "initial").ok());
  }
  const Snapshot* snapshot = db_->GetSnapshot();
  const std::map<std::string, std::string> frozen = model;

  for (int i = 0; i < 300; i++) {
    if (rnd.OneIn(2)) {
      const std::string key = "key" + std::to_string(i);
      ASSERT_TRUE(db_->Put(WriteOptions(), key, "mutated").ok());
      model[key] = "mutated";
    }
  }
  ASSERT_TRUE(db_->Flush().ok());

  ReadOptions snapshot_reads;
  snapshot_reads.snapshot = snapshot;
  for (const auto& [key, value] : frozen) {
    std::string got;
    ASSERT_TRUE(db_->Get(snapshot_reads, key, &got).ok());
    ASSERT_EQ(value, got) << key;
  }
  db_->ReleaseSnapshot(snapshot);
  CheckModelMatches(model);
}

TEST_P(DbModelTest, CryptoDispatchNamesTheActiveTiers) {
  // Every engine reports the same process-wide kernel tiers, read-only,
  // and the db_open LOG line names them too.
  Open();
  std::string value;
  ASSERT_TRUE(db_->GetProperty("shield.crypto-dispatch", &value));
  const std::map<std::string, std::set<std::string>> tiers = {
      {"aes-ctr", {"vaes512", "aes-ni", "portable"}},
      {"ghash", {"vpclmulqdq", "pclmulqdq", "portable"}},
      {"sha256", {"sha-ni", "portable"}},
      {"crc32c", {"sse4.2", "portable"}}};
  std::istringstream fields(value);
  std::set<std::string> named;
  for (std::string field; fields >> field;) {
    const size_t eq = field.find('=');
    ASSERT_NE(std::string::npos, eq) << value;
    const std::string primitive = field.substr(0, eq);
    ASSERT_TRUE(tiers.count(primitive)) << value;
    EXPECT_TRUE(tiers.at(primitive).count(field.substr(eq + 1))) << value;
    named.insert(primitive);
  }
  EXPECT_EQ(4u, named.size()) << value;
  EXPECT_EQ(crypto::CryptoDispatch(), value);
  EXPECT_EQ(0u, value.find(std::string("aes-ctr=") +
                           crypto::CtrTierName(crypto::ActiveCtrTier()) +
                           " ghash=" +
                           crypto::GhashTierName(crypto::ActiveGhashTier()) +
                           " "));
  std::string again;
  ASSERT_TRUE(db_->GetProperty("shield.crypto-dispatch", &again));
  EXPECT_EQ(value, again);

  std::string log;
  ASSERT_TRUE(ReadFileToString(env_.get(), "/db/LOG", &log).ok());
  EXPECT_NE(std::string::npos,
            log.find("\"crypto_dispatch\":\"" + value + "\""))
      << log.substr(0, 2000);
}

INSTANTIATE_TEST_SUITE_P(
    EngineMatrix, DbModelTest,
    ::testing::Values(
        PropertyParam{EncryptionMode::kNone, CompactionStyle::kLeveled, 0, 1},
        PropertyParam{EncryptionMode::kNone, CompactionStyle::kUniversal, 0,
                      2},
        PropertyParam{EncryptionMode::kNone, CompactionStyle::kFifo, 0, 3},
        PropertyParam{EncryptionMode::kEncFS, CompactionStyle::kLeveled, 0,
                      4},
        PropertyParam{EncryptionMode::kEncFS, CompactionStyle::kLeveled, 512,
                      5},
        PropertyParam{EncryptionMode::kShield, CompactionStyle::kLeveled, 0,
                      6},
        PropertyParam{EncryptionMode::kShield, CompactionStyle::kLeveled, 512,
                      7},
        PropertyParam{EncryptionMode::kShield, CompactionStyle::kUniversal,
                      512, 8},
        PropertyParam{EncryptionMode::kShield, CompactionStyle::kFifo, 512,
                      9}),
    ParamName);

}  // namespace
}  // namespace shield
