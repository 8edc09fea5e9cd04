// Opens golden files, each written by the build that introduced its
// format (tests/format_fixtures/, see make_format_fixtures.cc there),
// with this build's EncFS and SHIELD readers. Unlike every other test,
// which reads back what the same build wrote, this one fails if a
// change to the encrypted-file code moves a single on-disk byte: header
// layout, CTR offsets, MAC keys, tag placement or WAL padding. It also
// re-seals the v2 and v3 tables and logs through this build's writers
// and compares the bytes.

#include <algorithm>
#include <fstream>
#include <functional>
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
#include "lsm/block.h"
#include "lsm/iterator.h"
#include "lsm/log_reader.h"
#include "lsm/log_writer.h"
#include "lsm/options.h"
#include "lsm/sst_reader.h"
#include "lsm/table_format.h"
#include "shield/dek_manager.h"
#include "shield/encrypted_file.h"
#include "shield/file_crypto.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/statistics.h"

namespace shield {
namespace {

using KeyValues = std::vector<std::pair<std::string, std::string>>;

constexpr crypto::BlockMac kNone = crypto::BlockMac::kNone;
constexpr crypto::BlockMac kHmac = crypto::BlockMac::kHmacSha256;
constexpr crypto::BlockMac kGhash = crypto::BlockMac::kGhash;

enum class Stack { kEncFs, kShield };

struct Fixture {
  const char* name;
  Stack stack;
  crypto::BlockMac mac;  // kNone for format v1

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

  // Copies the fixture into the in-memory Env, its bytes first passed
  // through `edit` when it is set.
  void Install(const std::function<void(std::string*)>& edit = nullptr) {
    std::string bytes;
    ASSERT_TRUE(
        ReadFileToString(Env::Default(), FixturePath(GetParam().name), &bytes)
            .ok())
        << GetParam().name;
    ASSERT_GT(bytes.size(), GetParam().header_size());
    if (edit) {
      edit(&bytes);
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

  // The file's header must name the fixture's MAC.
  template <typename File>
  void ExpectMac(const File& file) {
    const crypto::BlockAuthenticator* auth = file.block_authenticator();
    EXPECT_EQ(GetParam().mac, auth == nullptr ? kNone : auth->mac())
        << GetParam().name;
  }

  // Scans the whole table; returns the first open or iteration error.
  Status ScanTable(KeyValues* out) {
    std::unique_ptr<RandomAccessFile> file;
    Status s = OpenRandom(&file);
    if (!s.ok()) {
      return s;
    }
    ExpectMac(*file);
    uint64_t size = 0;
    s = file->Size(&size);
    if (!s.ok()) {
      return s;
    }
    std::unique_ptr<Table> table;
    s = Table::Open(Options(), &icmp_, Name(), std::move(file), size,
                    /*tail_size=*/0, /*block_cache=*/{}, &table);
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
  // Returns the first corruption reported; `dropped_bytes`, when set,
  // receives the bytes all reports dropped.
  Status ReplayLog(std::vector<std::string>* out,
                   uint64_t* dropped_bytes = nullptr) {
    struct Reporter final : log::Reader::Reporter {
      Status status;
      uint64_t dropped = 0;
      void Corruption(size_t bytes, const Status& s) override {
        dropped += bytes;
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
    ExpectMac(*file);
    log::Reader reader(file.get(), &reporter);
    Slice record;
    std::string scratch;
    while (reader.ReadRecord(&record, &scratch)) {
      out->push_back(record.ToString());
    }
    if (dropped_bytes != nullptr) {
      *dropped_bytes = reporter.dropped;
    }
    return reporter.status;
  }

  // The key, nonce and format of the fixture, from its header.
  void HeaderParams(const std::string& header, EncryptedFileParams* params) {
    params->header_size = GetParam().header_size();
    params->mac = GetParam().mac;
    if (GetParam().stack == Stack::kEncFs) {
      params->cipher = crypto::CipherKind::kAes128Ctr;
      params->key = fixture::kEncFsInstanceKey;
      params->nonce = header.substr(10, static_cast<uint8_t>(header[9]));
      return;
    }
    ShieldFileHeader parsed;
    ASSERT_TRUE(ParseShieldFileHeader(header, &parsed).ok());
    Dek dek;
    ASSERT_TRUE(kds_.GetDek("", parsed.dek_id, &dek).ok());
    params->cipher = parsed.cipher;
    params->key = dek.key;
    params->nonce = parsed.nonce;
  }

  // The handles of every block of the table in `file`, in file order.
  void TableBlocks(RandomAccessFile* file, uint64_t size,
                   std::vector<BlockHandle>* blocks) {
    char footer_space[Footer::kEncodedLength];
    Slice input;
    ASSERT_TRUE(file->Read(size - Footer::kEncodedLength,
                           Footer::kEncodedLength, &input, footer_space)
                    .ok());
    Footer footer;
    ASSERT_TRUE(footer.DecodeFrom(&input).ok());
    blocks->push_back(footer.index_handle());
    blocks->push_back(footer.properties_handle());
    BlockContents contents;
    ASSERT_TRUE(ReadBlock(file, ReadOptions(), footer.properties_handle(),
                          &contents)
                    .ok());
    TableProperties props;
    Status s = DecodeTableProperties(contents.data, &props);
    delete[] contents.data.data();
    ASSERT_TRUE(s.ok());
    if (props.count(kPropFilterHandle) > 0) {
      Slice filter(props[kPropFilterHandle]);
      blocks->emplace_back();
      ASSERT_TRUE(blocks->back().DecodeFrom(&filter).ok());
    }
    ASSERT_TRUE(ReadBlock(file, ReadOptions(), footer.index_handle(),
                          &contents)
                    .ok());
    Block index(contents.data.data(), contents.data.size(), /*owned=*/true);
    std::unique_ptr<Iterator> it(index.NewIterator(&icmp_));
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      Slice handle = it->value();
      blocks->emplace_back();
      ASSERT_TRUE(blocks->back().DecodeFrom(&handle).ok());
    }
    std::sort(blocks->begin(), blocks->end(),
              [](const BlockHandle& a, const BlockHandle& b) {
                return a.offset() < b.offset();
              });
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
  if (GetParam().mac != crypto::BlockMac::kNone) {
    EXPECT_GT(stats_->GetTickerCount(Tickers::kCryptoHmacVerified), 0u);
  }
}

// One flipped ciphertext bit in the first data block or among the first
// records must surface as Corruption. SST blocks and log records both
// check the tag before the CRC, so on v2 and v3 files the tag is what
// catches it.
TEST_P(FormatFixtureTest, FlippedCiphertextBitIsCorruption) {
  const size_t flip_at = GetParam().header_size() + 100;
  ASSERT_NO_FATAL_FAILURE(
      Install([flip_at](std::string* bytes) { (*bytes)[flip_at] ^= 0x10; }));
  Status s;
  if (GetParam().is_sst()) {
    KeyValues got;
    s = ScanTable(&got);
  } else {
    std::vector<std::string> got;
    s = ReplayLog(&got);
  }
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(GetParam().mac != crypto::BlockMac::kNone,
            stats_->GetTickerCount(Tickers::kCryptoHmacFailures) > 0);
}

INSTANTIATE_TEST_SUITE_P(
    Golden, FormatFixtureTest,
    ::testing::Values(Fixture{"shield_v1.sst", Stack::kShield, kNone},
                      Fixture{"shield_v2.sst", Stack::kShield, kHmac},
                      Fixture{"shield_v2_padded.log", Stack::kShield, kHmac},
                      Fixture{"shield_v3.sst", Stack::kShield, kGhash},
                      Fixture{"shield_v3_padded.log", Stack::kShield, kGhash},
                      Fixture{"encfs_v1.sst", Stack::kEncFs, kNone},
                      Fixture{"encfs_v1.log", Stack::kEncFs, kNone},
                      Fixture{"encfs_v2.sst", Stack::kEncFs, kHmac},
                      Fixture{"encfs_v2.log", Stack::kEncFs, kHmac},
                      Fixture{"encfs_v3.sst", Stack::kEncFs, kGhash},
                      Fixture{"encfs_v3.log", Stack::kEncFs, kGhash}),
    [](const ::testing::TestParamInfo<Fixture>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '.') {
          c = '_';
        }
      }
      return name;
    });

// Re-seals a v2 or v3 fixture through the sealed write path, under the
// key, nonce and MAC of the fixture's header. The result must be the
// committed file byte for byte.
// - A table: every block is re-sealed at its offset; the rest (the
//   footer) is appended unsealed. SHIELD's writer seals in its SST
//   chunk buffer, EncFS's seals each block in its own encryption
//   operation.
// - A log: expected_records.txt is re-written through log::Writer, with
//   the fixture padding buckets for SHIELD. SHIELD's writer seals in its
//   WAL buffer, EncFS's seals each record as it is appended.
class FormatResealTest : public FormatFixtureTest {
 protected:
  void ResealTable(WritableFile* writer) {
    std::unique_ptr<RandomAccessFile> reader;
    ASSERT_TRUE(OpenRandom(&reader).ok());
    uint64_t size = 0;
    ASSERT_TRUE(reader->Size(&size).ok());
    std::string plain(size, '\0');
    Slice plain_read;
    ASSERT_TRUE(reader->Read(0, size, &plain_read, plain.data()).ok());
    ASSERT_EQ(size, plain_read.size());
    std::vector<BlockHandle> blocks;
    ASSERT_NO_FATAL_FAILURE(TableBlocks(reader.get(), size, &blocks));

    uint64_t cursor = 0;
    for (const BlockHandle& block : blocks) {
      ASSERT_LE(cursor, block.offset());
      ASSERT_TRUE(
          writer->Append(Slice(plain.data() + cursor, block.offset() - cursor))
              .ok());
      const char* payload = plain.data() + block.offset();
      ASSERT_TRUE(writer
                      ->AppendSealed(Slice(payload, block.size()),
                                     Slice(payload + block.size(),
                                           kBlockTrailerSize))
                      .ok());
      cursor = block.offset() + block.size() + kBlockTrailerSize +
               crypto::kBlockAuthTagSize;
      ASSERT_EQ(cursor, writer->GetFileSize());
    }
    ASSERT_TRUE(
        writer->Append(Slice(plain.data() + cursor, size - cursor)).ok());
  }

  void ResealLog(WritableFile* writer) {
    const std::vector<uint32_t> buckets =
        GetParam().stack == Stack::kShield ? fixture::kPaddingBuckets
                                           : std::vector<uint32_t>();
    log::Writer log(writer, 0, buckets, /*stats=*/nullptr);
    for (const std::string& record : ReadLines("expected_records.txt")) {
      ASSERT_TRUE(log.AddRecord(record).ok());
    }
  }
};

TEST_P(FormatResealTest, ResealIsByteIdentical) {
  ASSERT_NO_FATAL_FAILURE(Install());
  std::string committed;
  ASSERT_TRUE(ReadFileToString(env_.get(), Name(), &committed).ok());
  EncryptedFileParams params;
  ASSERT_NO_FATAL_FAILURE(HeaderParams(
      committed.substr(0, GetParam().header_size()), &params));

  std::unique_ptr<WritableFile> base;
  ASSERT_TRUE(env_->NewWritableFile("/resealed", &base).ok());
  ASSERT_TRUE(
      base->Append(Slice(committed.data(), GetParam().header_size())).ok());
  const bool is_sst = GetParam().is_sst();
  size_t buffer_size = 0;
  if (GetParam().stack == Stack::kShield) {
    buffer_size = is_sst ? EncryptionOptions().sst_chunk_size
                         : EncryptionOptions().wal_buffer_size;
  }
  std::unique_ptr<WritableFile> writer;
  ASSERT_TRUE(NewEncryptedWritableFile(
                  std::move(base), params,
                  is_sst ? FileKind::kSst : FileKind::kWal, buffer_size,
                  /*pool=*/nullptr, /*threads=*/1, /*stats=*/nullptr, &writer)
                  .ok());
  if (is_sst) {
    ASSERT_NO_FATAL_FAILURE(ResealTable(writer.get()));
  } else {
    ASSERT_NO_FATAL_FAILURE(ResealLog(writer.get()));
  }
  ASSERT_TRUE(writer->Close().ok());

  std::string resealed;
  ASSERT_TRUE(ReadFileToString(env_.get(), "/resealed", &resealed).ok());
  ASSERT_EQ(committed.size(), resealed.size());
  EXPECT_TRUE(committed == resealed)
      << "first differing byte at "
      << std::mismatch(committed.begin(), committed.end(), resealed.begin())
                 .first -
             committed.begin();
}

INSTANTIATE_TEST_SUITE_P(
    Golden, FormatResealTest,
    ::testing::Values(Fixture{"shield_v2.sst", Stack::kShield, kHmac},
                      Fixture{"encfs_v2.sst", Stack::kEncFs, kHmac},
                      Fixture{"shield_v3.sst", Stack::kShield, kGhash},
                      Fixture{"encfs_v3.sst", Stack::kEncFs, kGhash},
                      Fixture{"shield_v2_padded.log", Stack::kShield, kHmac},
                      Fixture{"encfs_v2.log", Stack::kEncFs, kHmac},
                      Fixture{"shield_v3_padded.log", Stack::kShield, kGhash},
                      Fixture{"encfs_v3.log", Stack::kEncFs, kGhash}),
    [](const ::testing::TestParamInfo<Fixture>& info) {
      return std::string(info.param.stack == Stack::kShield ? "shield"
                                                            : "encfs") +
             (info.param.mac == kHmac ? "" : "_v3") +
             (info.param.is_sst() ? "" : "_log");
    });

// A log record's header|payload of `type`, with a valid CRC.
std::string RecordImage(log::RecordType type, const std::string& payload) {
  std::string image(log::kHeaderSize, '\0');
  image[4] = static_cast<char>(payload.size() & 0xff);
  image[5] = static_cast<char>(payload.size() >> 8);
  image[6] = static_cast<char>(type);
  image += payload;
  EncodeFixed32(image.data(),
                crc32c::Mask(crc32c::Value(image.data() + 6,
                                           1 + payload.size())));
  return image;
}

// Forges records into an authenticated log without its key. The first
// records of expected_records.txt are known plaintext; XORing their
// stored bytes with (known ^ chosen) rewrites them to chosen plaintext.
class ForgedRecordTest : public FormatFixtureTest {
 protected:
  void SetUp() override {
    records_ = ReadLines("expected_records.txt");
    ASSERT_GE(records_.size(), 2u);
  }

  // Installs the log with the start of its second record rewritten to
  // `forged`.
  void ForgeSecondRecord(const std::string& forged) {
    const std::string known = RecordImage(log::kFullAuthType, records_[1]);
    ASSERT_LE(forged.size(), known.size());
    const size_t forge_at = GetParam().header_size() + SecondOffset();
    ASSERT_NO_FATAL_FAILURE(Install([&](std::string* bytes) {
      char* at = bytes->data() + forge_at;
      for (size_t i = 0; i < forged.size(); i++) {
        at[i] ^= known[i] ^ forged[i];
      }
    }));
  }

  // The second record's offset in the log's first block.
  uint64_t SecondOffset() const {
    return log::kHeaderSize + records_[0].size() + crypto::kBlockAuthTagSize;
  }

  std::vector<std::string> records_;
};

// The second record becomes a tagless kFullType record with a chosen
// payload and a valid CRC, followed by a zero header that makes a
// reader skip the rest of the block. CRC and record type check out,
// but an authenticated log carries no tagless record: it must be
// Corruption.
TEST_P(ForgedRecordTest, UnauthenticatedRecordIsCorruption) {
  ASSERT_NO_FATAL_FAILURE(
      ForgeSecondRecord(RecordImage(log::kFullType, "forged") +
                        std::string(log::kHeaderSize, '\0')));

  std::vector<std::string> got;
  Status s = ReplayLog(&got);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(records_[0], got[0]);
  EXPECT_EQ(0, std::count(got.begin(), got.end(), "forged"));
}

// The second record's header becomes a zero header, which reads as
// block-trailer fill. The fill carries no tag, but what follows a forged
// one is not zeros: the rest of the block must be reported dropped, not
// skipped in silence.
TEST_P(ForgedRecordTest, ForgedTrailerFillIsReported) {
  ASSERT_NO_FATAL_FAILURE(
      ForgeSecondRecord(std::string(log::kHeaderSize, '\0')));

  std::vector<std::string> got;
  uint64_t dropped = 0;
  Status s = ReplayLog(&got, &dropped);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(records_[0], got[0]);
  EXPECT_GE(dropped, log::kBlockSize - SecondOffset());
}

INSTANTIATE_TEST_SUITE_P(
    Golden, ForgedRecordTest,
    ::testing::Values(Fixture{"encfs_v2.log", Stack::kEncFs, kHmac},
                      Fixture{"encfs_v3.log", Stack::kEncFs, kGhash}),
    [](const ::testing::TestParamInfo<Fixture>& info) {
      return std::string(info.param.mac == kHmac ? "encfs_v2" : "encfs_v3");
    });

}  // namespace
}  // namespace shield
