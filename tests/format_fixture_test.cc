// Opens golden files written by an older build (tests/format_fixtures/,
// see make_format_fixtures.cc there) with this build's EncFS and SHIELD
// readers. Unlike every other test, which reads back what the same
// build wrote, this one fails if a change to the encrypted-file code
// moves a single on-disk byte: header layout, CTR offsets, MAC keys,
// tag placement or WAL padding.

#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "crypto/block_auth.h"
#include "encfs/encrypted_env.h"
#include "format_fixtures/fixture_spec.h"
#include "gtest/gtest.h"
#include "lsm/comparator.h"
#include "lsm/format.h"
#include "lsm/iterator.h"
#include "lsm/log_reader.h"
#include "lsm/options.h"
#include "lsm/sst_reader.h"
#include "shield/dek_manager.h"
#include "shield/file_crypto.h"
#include "util/statistics.h"

namespace shield {
namespace {

using KeyValues = std::vector<std::pair<std::string, std::string>>;

enum class Stack { kEncFs, kShield };

struct Fixture {
  const char* name;
  Stack stack;
  bool authenticated;  // format v2

  bool is_sst() const { return std::string(name).ends_with(".sst"); }
  uint64_t header_size() const {
    return stack == Stack::kEncFs ? kEncFsHeaderSize : kShieldHeaderSize;
  }
};

void PrintTo(const Fixture& fixture, std::ostream* os) { *os << fixture.name; }

std::string FixturePath(const std::string& name) {
  return std::string(SHIELD_FORMAT_FIXTURE_DIR) + "/" + name;
}

std::vector<std::string> ReadLines(const std::string& name) {
  std::ifstream in(FixturePath(name));
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

KeyValues ExpectedKeyValues() {
  KeyValues kvs;
  for (const std::string& line : ReadLines("expected_kv.txt")) {
    const size_t tab = line.find('\t');
    kvs.emplace_back(line.substr(0, tab), line.substr(tab + 1));
  }
  return kvs;
}

class FormatFixtureTest : public ::testing::TestWithParam<Fixture> {
 protected:
  FormatFixtureTest()
      : env_(NewMemEnv()),
        stats_(CreateDBStatistics()),
        dek_manager_(&kds_, "fixture-reader", nullptr) {
    EXPECT_TRUE(NewEncryptedEnv(env_.get(), crypto::CipherKind::kAes128Ctr,
                                fixture::kEncFsInstanceKey, &encfs_,
                                /*wal_buffer_size=*/0,
                                /*authenticate_blocks=*/true, stats_.get())
                    .ok());
    EncryptionOptions opts;
    opts.mode = EncryptionMode::kShield;
    shield_ = NewShieldFileFactory(env_.get(), &dek_manager_, opts, nullptr,
                                   stats_.get());
  }

  // Copies the fixture into the in-memory Env, with the bit at physical
  // byte `flip_at` inverted when it is set.
  void Install(int64_t flip_at = -1) {
    std::string bytes;
    ASSERT_TRUE(
        ReadFileToString(Env::Default(), FixturePath(GetParam().name), &bytes)
            .ok())
        << GetParam().name;
    ASSERT_GT(bytes.size(), GetParam().header_size());
    if (flip_at >= 0) {
      bytes[flip_at] ^= 0x10;
    }
    ASSERT_TRUE(WriteStringToFile(env_.get(), bytes, Name(), false).ok());
  }

  std::string Name() const { return std::string("/") + GetParam().name; }

  Status OpenRandom(std::unique_ptr<RandomAccessFile>* file) {
    return GetParam().stack == Stack::kEncFs
               ? encfs_->NewRandomAccessFile(Name(), file)
               : shield_->NewRandomAccessFile(Name(), file);
  }

  Status OpenSequential(std::unique_ptr<SequentialFile>* file) {
    return GetParam().stack == Stack::kEncFs
               ? encfs_->NewSequentialFile(Name(), file)
               : shield_->NewSequentialFile(Name(), file);
  }

  // Scans the whole table; returns the first open or iteration error.
  Status ScanTable(KeyValues* out) {
    std::unique_ptr<RandomAccessFile> file;
    Status s = OpenRandom(&file);
    if (!s.ok()) {
      return s;
    }
    EXPECT_EQ(GetParam().authenticated,
              file->block_authenticator() != nullptr);
    uint64_t size = 0;
    s = file->Size(&size);
    if (!s.ok()) {
      return s;
    }
    std::unique_ptr<Table> table;
    s = Table::Open(Options(), &icmp_, Name(), std::move(file), size,
                    nullptr, &table);
    if (!s.ok()) {
      return s;
    }
    std::unique_ptr<Iterator> it(table->NewIterator(ReadOptions()));
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      out->emplace_back(ExtractUserKey(it->key()).ToString(),
                        it->value().ToString());
    }
    return it->status();
  }

  // Replays the whole log; returns the first corruption it reported.
  Status ReplayLog(std::vector<std::string>* out) {
    struct Reporter final : log::Reader::Reporter {
      Status status;
      void Corruption(size_t /*bytes*/, const Status& s) override {
        if (status.ok()) {
          status = s;
        }
      }
    } reporter;
    std::unique_ptr<SequentialFile> file;
    Status s = OpenSequential(&file);
    if (!s.ok()) {
      return s;
    }
    EXPECT_EQ(GetParam().authenticated,
              file->block_authenticator() != nullptr);
    log::Reader reader(file.get(), &reporter, /*checksum=*/true);
    Slice record;
    std::string scratch;
    while (reader.ReadRecord(&record, &scratch)) {
      out->push_back(record.ToString());
    }
    return reporter.status;
  }

  std::unique_ptr<Env> env_;
  std::shared_ptr<Statistics> stats_;
  fixture::FixtureKds kds_;
  DekManager dek_manager_;
  std::unique_ptr<Env> encfs_;
  std::unique_ptr<DataFileFactory> shield_;
  const InternalKeyComparator icmp_{BytewiseComparator()};
};

TEST_P(FormatFixtureTest, ReadsExpectedContents) {
  ASSERT_NO_FATAL_FAILURE(Install());
  if (GetParam().is_sst()) {
    KeyValues got;
    ASSERT_TRUE(ScanTable(&got).ok());
    const KeyValues want = ExpectedKeyValues();
    ASSERT_EQ(300u, want.size());
    EXPECT_EQ(want, got);
  } else {
    std::vector<std::string> got;
    Status s = ReplayLog(&got);
    ASSERT_TRUE(s.ok()) << s.ToString();
    const std::vector<std::string> want = ReadLines("expected_records.txt");
    ASSERT_EQ(150u, want.size());
    EXPECT_EQ(want, got);
  }
  EXPECT_EQ(0u, stats_->GetTickerCount(Tickers::kCryptoHmacFailures));
  if (GetParam().authenticated) {
    EXPECT_GT(stats_->GetTickerCount(Tickers::kCryptoHmacVerified), 0u);
  }
}

// One flipped ciphertext bit in the first data block or among the first
// records must surface as Corruption. SST blocks check the HMAC tag
// before the CRC, so on v2 tables the tag is what catches it; the log
// reader checks a record's CRC first.
TEST_P(FormatFixtureTest, FlippedCiphertextBitIsCorruption) {
  ASSERT_NO_FATAL_FAILURE(
      Install(static_cast<int64_t>(GetParam().header_size()) + 100));
  Status s;
  if (GetParam().is_sst()) {
    KeyValues got;
    s = ScanTable(&got);
    EXPECT_EQ(GetParam().authenticated,
              stats_->GetTickerCount(Tickers::kCryptoHmacFailures) > 0);
  } else {
    std::vector<std::string> got;
    s = ReplayLog(&got);
  }
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Golden, FormatFixtureTest,
    ::testing::Values(Fixture{"shield_v1.sst", Stack::kShield, false},
                      Fixture{"shield_v2.sst", Stack::kShield, true},
                      Fixture{"shield_v2_padded.log", Stack::kShield, true},
                      Fixture{"encfs_v1.sst", Stack::kEncFs, false},
                      Fixture{"encfs_v1.log", Stack::kEncFs, false},
                      Fixture{"encfs_v2.sst", Stack::kEncFs, true},
                      Fixture{"encfs_v2.log", Stack::kEncFs, true}),
    [](const ::testing::TestParamInfo<Fixture>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '.') {
          c = '_';
        }
      }
      return name;
    });

}  // namespace
}  // namespace shield
