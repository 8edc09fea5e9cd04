// Tests for the self-healing integrity scrubber: tamper detection with
// file/offset attribution (on every read path of a sealed SST block),
// pre-auth-tag format compatibility, local salvage, replica repair on
// disaggregated storage, and the background scrub thread (including a
// close during a throttled pass).

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "crypto/block_auth.h"
#include "crypto/secure_random.h"
#include "ds/storage_service.h"
#include "encfs/encrypted_env.h"
#include "env/fault_injection_env.h"
#include "gtest/gtest.h"
#include "kds/local_kds.h"
#include "lsm/block.h"
#include "lsm/db.h"
#include "lsm/error_handler.h"
#include "lsm/filter_policy.h"
#include "lsm/format.h"
#include "lsm/table_format.h"
#include "shield/dek_manager.h"
#include "shield/file_crypto.h"
#include "test_util.h"
#include "util/clock.h"

namespace shield {
namespace {

constexpr char kDbName[] = "/db";

std::string Property(DB* db, const std::string& name) {
  std::string value;
  EXPECT_TRUE(db->GetProperty("shield." + name, &value)) << name;
  return value;
}

std::string TestValue(int i) {
  return "value-" + std::to_string(i) + "-" + std::string(100, 'p');
}

std::string TestKey(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "key%06d", i);
  return buf;
}

// Lists the table files currently in the DB directory of `env`,
// oldest first.
std::vector<std::string> ListSstFiles(Env* env) {
  std::vector<std::string> children;
  EXPECT_TRUE(env->GetChildren(kDbName, &children).ok());
  std::vector<std::string> ssts;
  for (const std::string& child : children) {
    if (child.size() > 4 && child.substr(child.size() - 4) == ".sst") {
      ssts.push_back(child);
    }
  }
  std::sort(ssts.begin(), ssts.end());
  return ssts;
}

// The SHIELD header version of each table file in the DB directory.
std::map<std::string, int> SstVersions(Env* env) {
  std::map<std::string, int> versions;
  for (const std::string& sst : ListSstFiles(env)) {
    ShieldFileHeader header;
    EXPECT_TRUE(
        ReadShieldFileHeader(env, std::string(kDbName) + "/" + sst, &header)
            .ok())
        << sst;
    versions[sst] = header.version;
  }
  return versions;
}

// Flips a bit 25% into the physical file: early data blocks, never the
// footer/index region at the tail.
void FlipBitInDataRegion(FaultInjectionEnv* fault_env, Env* raw_env,
                         const std::string& fname) {
  uint64_t size = 0;
  ASSERT_TRUE(raw_env->GetFileSize(fname, &size).ok());
  ASSERT_GT(size, 256u);
  ASSERT_TRUE(fault_env->FlipBit(fname, (size / 4) * 8).ok());
}

class ScrubListener : public EventListener {
 public:
  void OnBackgroundError(BackgroundErrorReason, const Status&,
                         ErrorSeverity) override {
    errors++;
  }
  void OnIntegrityViolation(const std::string& fname,
                            const Status&) override {
    violations++;
    last_violation_file = fname;
  }
  void OnFileRepaired(const std::string& fname, bool from_replica) override {
    repairs++;
    last_repair_file = fname;
    last_repair_from_replica = from_replica;
  }

  std::atomic<int> errors{0};
  std::atomic<int> violations{0};
  std::atomic<int> repairs{0};
  std::atomic<bool> last_repair_from_replica{false};
  std::string last_violation_file;
  std::string last_repair_file;
};

// --- Monolithic deployment: detection and local salvage ---------------------

class ScrubTest : public ::testing::Test {
 protected:
  ScrubTest() : mem_env_(NewMemEnv()), kds_(std::make_shared<LocalKds>()) {
    FaultInjectionOptions fopts;
    fopts.seed = 99;
    fault_env_ = std::make_unique<FaultInjectionEnv>(mem_env_.get(), fopts);
    fault_env_->SetFaultsEnabled(false);
    listener_ = std::make_shared<ScrubListener>();
  }

  Options MakeOptions() {
    Options options;
    options.env = fault_env_.get();
    options.write_buffer_size = 256 * 1024;  // one SST per Flush
    options.encryption.mode = EncryptionMode::kShield;
    options.encryption.kds = kds_;
    options.listeners = {listener_};
    options.statistics = stats_;
    return options;
  }

  void Open(const Options& options) {
    db_.reset();
    DB* db = nullptr;
    ASSERT_TRUE(DB::Open(options, kDbName, &db).ok());
    db_.reset(db);
  }

  void WriteAndFlush(int n) {
    for (int i = 0; i < n; i++) {
      shadow_[TestKey(i)] = TestValue(i);
      ASSERT_TRUE(db_->Put(WriteOptions(), TestKey(i), TestValue(i)).ok());
    }
    ASSERT_TRUE(db_->Flush().ok());
  }

  // Returns {matching, missing, wrong} counts of a full scan against
  // the shadow model.
  void ScanAgainstShadow(int* matching, int* missing, int* wrong) {
    *matching = *missing = *wrong = 0;
    std::map<std::string, std::string> seen;
    std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      seen[iter->key().ToString()] = iter->value().ToString();
    }
    EXPECT_TRUE(iter->status().ok()) << iter->status().ToString();
    for (const auto& [key, value] : shadow_) {
      auto it = seen.find(key);
      if (it == seen.end()) {
        (*missing)++;
      } else if (it->second == value) {
        (*matching)++;
      } else {
        (*wrong)++;
      }
    }
  }

  std::unique_ptr<Env> mem_env_;
  std::unique_ptr<FaultInjectionEnv> fault_env_;
  std::shared_ptr<LocalKds> kds_;
  std::shared_ptr<ScrubListener> listener_;
  // Holds the counts the scrub properties read. A reopen keeps it, so
  // counts carry over; no test here scrubs before it reopens.
  std::shared_ptr<Statistics> stats_ = CreateDBStatistics();
  std::map<std::string, std::string> shadow_;
  std::unique_ptr<DB> db_;
};

TEST_F(ScrubTest, CleanDbPassesVerifyIntegrity) {
  Open(MakeOptions());
  WriteAndFlush(300);
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
  EXPECT_EQ(Property(db_.get(), "scrub-corruptions-detected"), "0");
}

TEST_F(ScrubTest, TamperedBlockNamesFileAndOffset) {
  Options options = MakeOptions();
  options.scrub_repair = false;  // detect + report only
  Open(options);
  WriteAndFlush(300);

  const std::vector<std::string> ssts = ListSstFiles(mem_env_.get());
  ASSERT_FALSE(ssts.empty());
  const std::string fname = std::string(kDbName) + "/" + ssts[0];
  FlipBitInDataRegion(fault_env_.get(), mem_env_.get(), fname);

  Status s = db_->VerifyIntegrity();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  // The error names the damaged file and the block offset inside it.
  EXPECT_NE(s.ToString().find(ssts[0]), std::string::npos) << s.ToString();
  EXPECT_NE(s.ToString().find("at offset"), std::string::npos) << s.ToString();

  EXPECT_EQ(Property(db_.get(), "scrub-corruptions-detected"), "1");
  EXPECT_EQ(Property(db_.get(), "scrub-repaired-files"), "0");
  EXPECT_EQ(listener_->violations, 1);
  EXPECT_NE(listener_->last_violation_file.find(ssts[0]), std::string::npos);
  // On-demand detection reports to the caller; it does not stop the DB.
  EXPECT_EQ(Property(db_.get(), "error-handler-state"), "active");
}

TEST_F(ScrubTest, PreAuthTagFilesStillReadable) {
  // Files written by the pre-tag format (no per-block HMAC) must stay
  // readable after an upgrade that enables authentication.
  Options options = MakeOptions();
  options.encryption.authenticate_blocks = false;
  Open(options);
  WriteAndFlush(300);
  db_.reset();
  const std::map<std::string, int> v1_files = SstVersions(mem_env_.get());
  ASSERT_FALSE(v1_files.empty());
  for (const auto& [sst, version] : v1_files) {
    EXPECT_EQ(kShieldFormatVersionBase, version) << sst;
  }

  options.encryption.authenticate_blocks = true;
  Open(options);
  int matching = 0, missing = 0, wrong = 0;
  ScanAgainstShadow(&matching, &missing, &wrong);
  EXPECT_EQ(matching, 300);
  EXPECT_EQ(missing, 0);
  EXPECT_EQ(wrong, 0);
  // The scrubber verifies v1 files by CRC alone — no false alarms.
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
  EXPECT_EQ(Property(db_.get(), "scrub-corruptions-detected"), "0");

  // New SSTs written after the upgrade carry tags (format v3); both
  // generations coexist in one tree.
  for (int i = 300; i < 400; i++) {
    shadow_[TestKey(i)] = TestValue(i);
    ASSERT_TRUE(db_->Put(WriteOptions(), TestKey(i), TestValue(i)).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  int new_files = 0;
  for (const auto& [sst, version] : SstVersions(mem_env_.get())) {
    if (v1_files.count(sst) == 0) {
      EXPECT_EQ(kShieldFormatVersionGhash, version) << sst;
      new_files++;
    }
  }
  EXPECT_GT(new_files, 0);
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
  ScanAgainstShadow(&matching, &missing, &wrong);
  EXPECT_EQ(matching, 400);
}

TEST_F(ScrubTest, LocalSalvageRecoversReadableEntries) {
  Open(MakeOptions());
  WriteAndFlush(300);

  const std::vector<std::string> ssts = ListSstFiles(mem_env_.get());
  ASSERT_FALSE(ssts.empty());
  const std::string fname = std::string(kDbName) + "/" + ssts[0];
  FlipBitInDataRegion(fault_env_.get(), mem_env_.get(), fname);

  // No replica configured: the scrubber salvages the readable blocks.
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
  EXPECT_EQ(Property(db_.get(), "scrub-corruptions-detected"), "1");
  EXPECT_EQ(Property(db_.get(), "scrub-repaired-files"), "1");
  EXPECT_EQ(Property(db_.get(), "scrub-quarantined-files"), "1");
  EXPECT_EQ(listener_->repairs, 1);
  EXPECT_FALSE(listener_->last_repair_from_replica);
  EXPECT_EQ(Property(db_.get(), "error-handler-state"), "active");

  // The damaged ciphertext is preserved for forensics.
  EXPECT_TRUE(mem_env_->FileExists(fname + ".quarantine"));

  // Entries in the one damaged block are gone; everything else
  // survives, and nothing reads back wrong.
  int matching = 0, missing = 0, wrong = 0;
  ScanAgainstShadow(&matching, &missing, &wrong);
  EXPECT_EQ(wrong, 0);
  EXPECT_GE(missing, 1);
  EXPECT_LE(missing, 80) << "one ~4K block holds a few dozen entries";
  EXPECT_EQ(matching + missing, 300);

  // A second pass finds a clean tree.
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
  EXPECT_EQ(Property(db_.get(), "scrub-corruptions-detected"), "1");
}

// Serves the raw bytes of files captured before they were damaged,
// standing in for the DS storage service's replica.
class CapturedReplicaSource : public FileReplicaSource {
 public:
  void Capture(Env* env, const std::string& fname) {
    ASSERT_TRUE(ReadFileToString(env, fname, &files_[fname]).ok());
  }

  Status FetchFile(const std::string& fname, std::string* contents) override {
    auto it = files_.find(fname);
    if (it == files_.end()) {
      return Status::NotFound("no replica of", fname);
    }
    *contents = it->second;
    return Status::OK();
  }

 private:
  std::map<std::string, std::string> files_;
};

// A bit flip in the format-version byte of a live SST's SHIELD header
// makes the header parser answer NotSupported. On a file the engine
// wrote itself that is damage, so the scrubber must route it into
// repair like any other corruption.
TEST_F(ScrubTest, HeaderVersionBitFlipIsRepaired) {
  CapturedReplicaSource replica;
  Options options = MakeOptions();
  options.replica_source = &replica;
  Open(options);
  WriteAndFlush(300);

  const std::vector<std::string> ssts = ListSstFiles(mem_env_.get());
  ASSERT_FALSE(ssts.empty());
  const std::string fname = std::string(kDbName) + "/" + ssts[0];
  replica.Capture(mem_env_.get(), fname);
  ASSERT_TRUE(fault_env_->FlipBit(fname, 8 * 8 + 2).ok());  // byte 8, bit 2

  Status s = db_->VerifyIntegrity();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(Property(db_.get(), "scrub-corruptions-detected"), "1");
  EXPECT_EQ(Property(db_.get(), "scrub-repaired-files"), "1");
  EXPECT_EQ(listener_->violations, 1);
  EXPECT_TRUE(listener_->last_repair_from_replica);
  EXPECT_TRUE(mem_env_->FileExists(fname + ".quarantine"));

  int matching = 0, missing = 0, wrong = 0;
  ScanAgainstShadow(&matching, &missing, &wrong);
  EXPECT_EQ(matching, 300);
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
}

TEST_F(ScrubTest, BackgroundScrubThreadRepairsAutomatically) {
  Options options = MakeOptions();
  options.scrub_interval_micros = 20 * 1000;  // 20ms between passes
  options.scrub_bytes_per_second = 0;         // unthrottled
  Open(options);
  WriteAndFlush(300);

  const std::vector<std::string> ssts = ListSstFiles(mem_env_.get());
  ASSERT_FALSE(ssts.empty());
  const std::string fname = std::string(kDbName) + "/" + ssts[0];
  FlipBitInDataRegion(fault_env_.get(), mem_env_.get(), fname);

  // No API call: the background thread finds and repairs the damage.
  bool repaired = false;
  for (int i = 0; i < 10000 && !repaired; i++) {
    repaired = Property(db_.get(), "scrub-repaired-files") == "1";
    SleepForMicros(1000);
  }
  EXPECT_TRUE(repaired);
  EXPECT_TRUE(mem_env_->FileExists(fname + ".quarantine"));
  EXPECT_EQ(Property(db_.get(), "error-handler-state"), "active");
}

TEST_F(ScrubTest, CloseDuringThrottledBackgroundPassIsPrompt) {
  Open(MakeOptions());
  WriteAndFlush(300);
  db_.reset();
  uint64_t sst_bytes = 0;
  for (const std::string& sst : ListSstFiles(mem_env_.get())) {
    uint64_t size = 0;
    ASSERT_TRUE(
        mem_env_->GetFileSize(std::string(kDbName) + "/" + sst, &size).ok());
    sst_bytes += size;
  }
  ASSERT_GT(sst_bytes, 0u);

  // Reopen with a background scrubber paced so one pass takes about
  // 60 s.
  test::SstOpenCountingEnv counting_env(fault_env_.get());
  Options options = MakeOptions();
  options.env = &counting_env;
  options.scrub_interval_micros = 1000;
  options.scrub_bytes_per_second = std::max<uint64_t>(1, sst_bytes / 60);
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, kDbName, &raw).ok());
  std::unique_ptr<DB> db(raw);

  // Nothing else reads tables after this open: the first SST opened is
  // the pass's.
  for (int i = 0; i < 10000 && counting_env.sst_opens.load() == 0; i++) {
    SleepForMicros(1000);
  }
  ASSERT_GT(counting_env.sst_opens.load(), 0) << "scrub pass never started";

  const uint64_t start = NowMicros();
  db.reset();
  EXPECT_LT(NowMicros() - start, 5ull * 1000 * 1000)
      << "close waited out the scrub pacing";
}

// --- Sealed SST blocks: one flipped bit, every read path ---------------------

// Where in a format v3 block the bit is flipped: the tag covers the
// ciphertext of payload and trailer, so each must fail its check.
enum class SealedPart { kPayload, kTrailer, kTag };

struct SealedTamperParam {
  EncryptionMode mode;
  SealedPart part;
  const char* name;
};

void PrintTo(const SealedTamperParam& param, std::ostream* os) {
  *os << param.name;
}

// A DB under EncFS or SHIELD (format v3) whose table files the tests
// damage on the medium.
class SealedFileTest : public ::testing::Test {
 protected:
  explicit SealedFileTest(EncryptionMode mode)
      : mode_(mode),
        env_(NewMemEnv()),
        kds_(std::make_shared<LocalKds>()),
        instance_key_(crypto::SecureRandomString(16)),
        stats_(CreateDBStatistics()) {}

  Options MakeOptions() {
    Options options;
    options.env = env_.get();
    options.block_size = 1024;      // many small data blocks
    options.block_cache_size = 0;   // every block read goes to the file
    options.encryption.mode = mode_;
    options.encryption.kds = kds_;
    options.encryption.instance_key = instance_key_;
    options.statistics = stats_;
    options.filter_policy = filter_policy_.get();
    return options;
  }

  void Open() {
    db_.reset();
    DB* db = nullptr;
    ASSERT_TRUE(DB::Open(MakeOptions(), kDbName, &db).ok());
    db_.reset(db);
  }

  // Opens a table file of the DB the way the DB reads it, and gives the
  // size of its plaintext file header. The header must name format v3,
  // so that the tests cannot silently damage a file of another format.
  void OpenTableFile(const std::string& fname,
                     std::unique_ptr<RandomAccessFile>* file,
                     uint64_t* header_size) {
    std::string bytes;
    ASSERT_TRUE(ReadFileToString(env_.get(), fname, &bytes).ok());
    if (mode_ == EncryptionMode::kEncFS) {
      ASSERT_EQ("SHENCFS3", bytes.substr(0, 8));
      ASSERT_TRUE(NewEncryptedEnv(env_.get(), crypto::CipherKind::kAes128Ctr,
                                  instance_key_, &encfs_)
                      .ok());
      ASSERT_TRUE(encfs_->NewRandomAccessFile(fname, file).ok());
      *header_size = kEncFsHeaderSize;
    } else {
      ShieldFileHeader header;
      ASSERT_TRUE(ParseShieldFileHeader(bytes, &header).ok());
      ASSERT_EQ(kShieldFormatVersionGhash, header.version);
      dek_manager_ = std::make_unique<DekManager>(kds_.get(), "reader",
                                                  nullptr);
      EncryptionOptions opts;
      opts.mode = EncryptionMode::kShield;
      shield_ = NewShieldFileFactory(env_.get(), dek_manager_.get(), opts,
                                     nullptr);
      ASSERT_TRUE(shield_->NewRandomAccessFile(fname, file).ok());
      *header_size = kShieldHeaderSize;
    }
    ASSERT_NE(nullptr, (*file)->block_authenticator());
    ASSERT_EQ(crypto::BlockMac::kGhash, (*file)->block_authenticator()->mac());
  }

  // Finds the table's second data block and the first user key of each
  // of its first three data blocks.
  void FindDataBlocks(RandomAccessFile* file, BlockHandle* second,
                      std::vector<std::string>* first_keys) {
    uint64_t size = 0;
    ASSERT_TRUE(file->Size(&size).ok());
    char footer_space[Footer::kEncodedLength];
    Slice footer_input;
    ASSERT_TRUE(file->Read(size - Footer::kEncodedLength,
                           Footer::kEncodedLength, &footer_input,
                           footer_space)
                    .ok());
    Footer footer;
    ASSERT_TRUE(footer.DecodeFrom(&footer_input).ok());
    auto read_block = [&](const BlockHandle& handle) {
      BlockContents contents;
      EXPECT_TRUE(ReadBlock(file, ReadOptions(), handle, &contents).ok());
      EXPECT_TRUE(contents.heap_allocated);
      return std::make_unique<Block>(contents.data.data(),
                                     contents.data.size(), /*owned=*/true);
    };
    auto index = read_block(footer.index_handle());
    std::unique_ptr<Iterator> it(index->NewIterator(&icmp_));
    it->SeekToFirst();
    for (int i = 0; i < 3; i++) {
      ASSERT_TRUE(it->Valid());
      BlockHandle handle;
      Slice input = it->value();
      ASSERT_TRUE(handle.DecodeFrom(&input).ok());
      if (i == 1) {
        *second = handle;
      }
      auto block = read_block(handle);
      std::unique_ptr<Iterator> entries(block->NewIterator(&icmp_));
      entries->SeekToFirst();
      ASSERT_TRUE(entries->Valid());
      first_keys->push_back(ExtractUserKey(entries->key()).ToString());
      it->Next();
    }
  }

  // The error names the damaged file and the damaged block's offset.
  void ExpectNamesBlock(const Status& s, const char* path) {
    EXPECT_TRUE(s.IsCorruption()) << path << ": " << s.ToString();
    EXPECT_NE(std::string::npos, s.ToString().find(sst_)) << s.ToString();
    EXPECT_NE(std::string::npos, s.ToString().find(at_offset_))
        << s.ToString();
  }

  const EncryptionMode mode_;
  std::unique_ptr<Env> env_;
  std::shared_ptr<LocalKds> kds_;
  const std::string instance_key_;
  std::shared_ptr<Statistics> stats_;
  std::unique_ptr<const FilterPolicy> filter_policy_;  // none by default
  const InternalKeyComparator icmp_{BytewiseComparator()};
  std::unique_ptr<Env> encfs_;
  std::unique_ptr<DekManager> dek_manager_;
  std::unique_ptr<DataFileFactory> shield_;
  std::unique_ptr<DB> db_;
  std::string sst_;        // the damaged table's file name
  std::string at_offset_;  // "at offset <damaged block's offset> in"
};

class SealedBlockTamperTest
    : public SealedFileTest,
      public ::testing::WithParamInterface<SealedTamperParam> {
 protected:
  SealedBlockTamperTest() : SealedFileTest(GetParam().mode) {}
};

TEST_P(SealedBlockTamperTest, FlippedBitIsCorruptionOnEveryReadPath) {
  ASSERT_NO_FATAL_FAILURE(Open());
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), TestKey(i), TestValue(i)).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  db_.reset();

  const std::vector<std::string> ssts = ListSstFiles(env_.get());
  ASSERT_EQ(1u, ssts.size());
  sst_ = ssts[0];
  const std::string fname = std::string(kDbName) + "/" + sst_;
  BlockHandle block;
  std::vector<std::string> first_keys;
  uint64_t header_size = 0;
  {
    std::unique_ptr<RandomAccessFile> file;
    ASSERT_NO_FATAL_FAILURE(OpenTableFile(fname, &file, &header_size));
    ASSERT_NO_FATAL_FAILURE(FindDataBlocks(file.get(), &block, &first_keys));
  }
  ASSERT_GT(block.offset(), 0u);
  at_offset_ = "at offset " + std::to_string(block.offset()) + " in";

  uint64_t flip = header_size + block.offset();
  switch (GetParam().part) {
    case SealedPart::kPayload:
      flip += block.size() / 2;
      break;
    case SealedPart::kTrailer:
      flip += block.size() + 2;  // a CRC byte
      break;
    case SealedPart::kTag:
      flip += block.size() + kBlockTrailerSize + crypto::kBlockAuthTagSize / 2;
      break;
  }
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(env_.get(), fname, &bytes).ok());
  ASSERT_LT(flip, bytes.size());
  bytes[flip] ^= 0x04;
  ASSERT_TRUE(WriteStringToFile(env_.get(), bytes, fname, false).ok());
  ASSERT_NO_FATAL_FAILURE(Open());

  // Get of a key in the damaged block. The tag, checked before the
  // CRC, is what catches the flip.
  std::string value;
  ExpectNamesBlock(db_->Get(ReadOptions(), first_keys[1], &value), "Get");
  EXPECT_GT(stats_->GetTickerCount(Tickers::kCryptoHmacFailures), 0u);

  // MultiGet over three adjacent blocks: one coalesced span, carved per
  // block. Only the damaged block's key fails.
  const uint64_t batches_before =
      stats_->GetTickerCount(Tickers::kLsmMultiGetBatches);
  const std::vector<Slice> keys(first_keys.begin(), first_keys.end());
  std::vector<std::string> values;
  const std::vector<Status> statuses =
      db_->MultiGet(ReadOptions(), keys, &values);
  ASSERT_EQ(3u, statuses.size());
  EXPECT_GT(stats_->GetTickerCount(Tickers::kLsmMultiGetBatches),
            batches_before);
  EXPECT_TRUE(statuses[0].ok()) << statuses[0].ToString();
  ExpectNamesBlock(statuses[1], "MultiGet");
  EXPECT_TRUE(statuses[2].ok()) << statuses[2].ToString();

  // A scan through the readahead window, which caches ciphertext.
  ReadOptions scan;
  scan.readahead_size = 64 * 1024;
  {
    std::unique_ptr<Iterator> it(db_->NewIterator(scan));
    int n = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      n++;
    }
    EXPECT_LT(n, 300);
    ExpectNamesBlock(it->status(), "readahead scan");
  }
  EXPECT_GT(stats_->GetTickerCount(Tickers::kIoReadaheadBytes), 0u);

  // A compaction reading the table as its input (through its own
  // readahead window) fails instead of writing out damaged entries.
  ExpectNamesBlock(db_->CompactRange(nullptr, nullptr), "compaction");
  db_.reset();
}

INSTANTIATE_TEST_SUITE_P(
    Sealed, SealedBlockTamperTest,
    ::testing::Values(
        SealedTamperParam{EncryptionMode::kShield, SealedPart::kPayload,
                          "ShieldPayload"},
        SealedTamperParam{EncryptionMode::kShield, SealedPart::kTrailer,
                          "ShieldTrailer"},
        SealedTamperParam{EncryptionMode::kShield, SealedPart::kTag,
                          "ShieldTag"},
        SealedTamperParam{EncryptionMode::kEncFS, SealedPart::kPayload,
                          "EncFsPayload"},
        SealedTamperParam{EncryptionMode::kEncFS, SealedPart::kTrailer,
                          "EncFsTrailer"},
        SealedTamperParam{EncryptionMode::kEncFS, SealedPart::kTag,
                          "EncFsTag"}),
    [](const ::testing::TestParamInfo<SealedTamperParam>& info) {
      return std::string(info.param.name);
    });

// --- Sealed SST tail: filter, properties, index and footer ----------------

// The table's tail (filter, properties, index, footer) is fetched with
// one read when a table opens; each meta block is carved from that span
// and verified on its own. A flipped bit in any of them must still
// fail the open with Corruption naming the file and the block. The
// footer is not sealed, so bits flipped in its index handle can move
// the index past the end of the file; that too is Corruption, never a
// read outside the span.
enum class TailPart {
  kFilter,
  kProperties,
  kIndex,
  kFooterMagic,
  kFooterIndexOffset
};

struct TailTamperParam {
  EncryptionMode mode;
  TailPart part;
  const char* name;
};

void PrintTo(const TailTamperParam& param, std::ostream* os) {
  *os << param.name;
}

class SealedTailTamperTest
    : public SealedFileTest,
      public ::testing::WithParamInterface<TailTamperParam> {
 protected:
  SealedTailTamperTest() : SealedFileTest(GetParam().mode) {
    filter_policy_.reset(NewBloomFilterPolicy(10));
  }
};

TEST_P(SealedTailTamperTest, FlippedBitInTailBlockIsCorruption) {
  const TailTamperParam& param = GetParam();
  ASSERT_NO_FATAL_FAILURE(Open());
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), TestKey(i), TestValue(i)).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  db_.reset();

  const std::vector<std::string> ssts = ListSstFiles(env_.get());
  ASSERT_EQ(1u, ssts.size());
  sst_ = ssts[0];
  const std::string fname = std::string(kDbName) + "/" + sst_;
  uint64_t header_size = 0;
  uint64_t size = 0;
  BlockHandle target;
  std::string footer_plain;  // the footer as written
  std::string tampered_plain;  // the footer after the flips
  {
    std::unique_ptr<RandomAccessFile> file;
    ASSERT_NO_FATAL_FAILURE(OpenTableFile(fname, &file, &header_size));
    ASSERT_TRUE(file->Size(&size).ok());
    char footer_space[Footer::kEncodedLength];
    Slice footer_input;
    ASSERT_TRUE(file->Read(size - Footer::kEncodedLength,
                           Footer::kEncodedLength, &footer_input,
                           footer_space)
                    .ok());
    footer_plain = footer_input.ToString();
    Footer footer;
    ASSERT_TRUE(footer.DecodeFrom(&footer_input).ok());
    BlockContents contents;
    ASSERT_TRUE(ReadBlock(file.get(), ReadOptions(),
                          footer.properties_handle(), &contents)
                    .ok());
    TableProperties props;
    ASSERT_TRUE(DecodeTableProperties(contents.data, &props).ok());
    delete[] contents.data.data();
    Slice filter_input(props[kPropFilterHandle]);
    BlockHandle filter;
    ASSERT_TRUE(filter.DecodeFrom(&filter_input).ok());
    target = param.part == TailPart::kFilter       ? filter
             : param.part == TailPart::kProperties ? footer.properties_handle()
                                                   : footer.index_handle();
    if (param.part == TailPart::kFooterIndexOffset) {
      target.set_offset(uint64_t{1} << 40);
      Footer moved = footer;
      moved.set_index_handle(target);
      moved.EncodeTo(&tampered_plain);
      ASSERT_EQ(footer_plain.size(), tampered_plain.size());
    }
  }
  at_offset_ = "at offset " + std::to_string(target.offset()) + " in";

  const uint64_t flip =
      param.part == TailPart::kFooterMagic ? header_size + size - 3
      : param.part == TailPart::kFooterIndexOffset
          ? header_size + size - Footer::kEncodedLength
          : header_size + target.offset() + target.size() / 2;
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(env_.get(), fname, &bytes).ok());
  ASSERT_LT(flip, bytes.size());
  if (param.part == TailPart::kFooterIndexOffset) {
    // The footer is encrypted as it is stored (CTR), so flipping a
    // stored bit flips the same plaintext bit.
    for (size_t i = 0; i < footer_plain.size(); i++) {
      bytes[flip + i] ^= footer_plain[i] ^ tampered_plain[i];
    }
  } else {
    bytes[flip] ^= 0x10;
  }
  ASSERT_TRUE(WriteStringToFile(env_.get(), bytes, fname, false).ok());
  if (param.part == TailPart::kFooterIndexOffset) {
    std::unique_ptr<RandomAccessFile> file;
    ASSERT_NO_FATAL_FAILURE(OpenTableFile(fname, &file, &header_size));
    char footer_space[Footer::kEncodedLength];
    Slice footer_input;
    ASSERT_TRUE(file->Read(size - Footer::kEncodedLength,
                           Footer::kEncodedLength, &footer_input,
                           footer_space)
                    .ok());
    Footer footer;
    ASSERT_TRUE(footer.DecodeFrom(&footer_input).ok());
    ASSERT_EQ(target.offset(), footer.index_handle().offset());
  }
  ASSERT_NO_FATAL_FAILURE(Open());

  // The Get opens the table: one read for the tail, carved per block.
  std::string value;
  const Status s = db_->Get(ReadOptions(), TestKey(7), &value);
  if (param.part == TailPart::kFooterMagic) {
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_NE(std::string::npos, s.ToString().find(sst_)) << s.ToString();
  } else if (param.part == TailPart::kFooterIndexOffset) {
    ExpectNamesBlock(s, "table open");
  } else {
    // The tag over the block's ciphertext catches the flip before the
    // block is decrypted.
    ExpectNamesBlock(s, "table open");
    EXPECT_GT(stats_->GetTickerCount(Tickers::kCryptoHmacFailures), 0u);
  }
  db_.reset();
}

INSTANTIATE_TEST_SUITE_P(
    SealedTail, SealedTailTamperTest,
    ::testing::Values(
        TailTamperParam{EncryptionMode::kShield, TailPart::kFilter,
                        "ShieldFilter"},
        TailTamperParam{EncryptionMode::kShield, TailPart::kProperties,
                        "ShieldProperties"},
        TailTamperParam{EncryptionMode::kShield, TailPart::kIndex,
                        "ShieldIndex"},
        TailTamperParam{EncryptionMode::kShield, TailPart::kFooterMagic,
                        "ShieldFooterMagic"},
        TailTamperParam{EncryptionMode::kShield, TailPart::kFooterIndexOffset,
                        "ShieldFooterIndexOffset"},
        TailTamperParam{EncryptionMode::kEncFS, TailPart::kFilter,
                        "EncFsFilter"},
        TailTamperParam{EncryptionMode::kEncFS, TailPart::kProperties,
                        "EncFsProperties"},
        TailTamperParam{EncryptionMode::kEncFS, TailPart::kIndex,
                        "EncFsIndex"},
        TailTamperParam{EncryptionMode::kEncFS, TailPart::kFooterMagic,
                        "EncFsFooterMagic"},
        TailTamperParam{EncryptionMode::kEncFS, TailPart::kFooterIndexOffset,
                        "EncFsFooterIndexOffset"}),
    [](const ::testing::TestParamInfo<TailTamperParam>& info) {
      return std::string(info.param.name);
    });

// --- Disaggregated deployment: replica repair, full fault schedule ----------

// The ISSUE acceptance scenario: a SHIELD instance on simulated
// disaggregated storage (with HDFS-style replication) survives a
// seeded fault schedule of (a) a transient flush failure and (b) a
// flipped ciphertext bit in a live SST, ending back in the active
// state with the corrupt file repaired from the replica and zero
// acknowledged-synced keys lost.
TEST(DisaggregatedScrubTest, FaultScheduleEndsActiveWithZeroLoss) {
  auto backing = NewMemEnv();
  FaultInjectionOptions fopts;
  fopts.seed = 1234;
  FaultInjectionEnv fault_env(backing.get(), fopts);
  fault_env.SetFaultsEnabled(false);

  NetworkSimOptions net;
  net.rtt_micros = 50;
  StorageService service(&fault_env, net, /*replicate=*/true);
  std::unique_ptr<Env> remote = NewRemoteEnv(&service, nullptr);

  auto listener = std::make_shared<ScrubListener>();
  Options options;
  options.env = remote.get();
  options.write_buffer_size = 16 * 1024;
  // The tiny write buffer produces many L0 files; keep write stalls
  // out of the picture so the fault schedule exercises only the error
  // handler, never the L0 backpressure path.
  options.level0_slowdown_writes_trigger = 60;
  options.level0_stop_writes_trigger = 80;
  options.encryption.mode = EncryptionMode::kShield;
  options.encryption.kds = std::make_shared<LocalKds>();
  options.listeners = {listener};
  options.replica_source = &service;
  options.statistics = CreateDBStatistics();
  RetryPolicy resume;
  resume.max_attempts = 1 << 20;
  resume.initial_backoff_micros = 200;
  resume.max_backoff_micros = 1000;
  resume.jitter = 0;
  options.background_error_resume_policy = resume;

  DB* raw_db = nullptr;
  ASSERT_TRUE(DB::Open(options, kDbName, &raw_db).ok());
  std::unique_ptr<DB> db(raw_db);

  // Every key below is written with sync=true: once Put returns OK it
  // is acknowledged-synced and must survive the whole schedule.
  std::map<std::string, std::string> shadow;
  WriteOptions synced;
  synced.sync = true;
  for (int i = 0; i < 150; i++) {
    shadow[TestKey(i)] = TestValue(i);
    ASSERT_TRUE(db->Put(synced, TestKey(i), TestValue(i)).ok());
  }
  ASSERT_TRUE(db->Flush().ok());

  // (a) Transient flush failure: SST appends to the fabric fail with
  // TryAgain until the fault lifts; the DB rides it out in kRecovering.
  {
    FaultInjectionOptions transient = fopts;
    transient.write_error_probability = 1.0;
    transient.permanent_error_ratio = 0.0;
    transient.fault_kind_mask = FileKindBit(FileKind::kSst);
    fault_env.SetOptions(transient);
    fault_env.SetFaultsEnabled(true);
  }
  // Fill until the memtable rolls over once and the failing flush
  // records its first error, then stop: a second rollover would block
  // this thread behind the retrying flush. Transient SST faults never
  // fail the Puts themselves (the WAL is healthy), so each remains an
  // acknowledged-synced write.
  for (int i = 150; i < 450 && listener->errors.load() == 0; i++) {
    shadow[TestKey(i)] = TestValue(i);
    ASSERT_TRUE(db->Put(synced, TestKey(i), TestValue(i)).ok());
    SleepForMicros(500);
  }
  bool recovering = false;
  for (int i = 0; i < 10000 && !recovering; i++) {
    recovering = Property(db.get(), "error-handler-state") == "recovering";
    SleepForMicros(1000);
  }
  ASSERT_TRUE(recovering) << Property(db.get(), "error-handler-state");

  fault_env.SetFaultsEnabled(false);
  bool active = false;
  for (int i = 0; i < 10000 && !active; i++) {
    active = Property(db.get(), "error-handler-state") == "active";
    SleepForMicros(1000);
  }
  ASSERT_TRUE(active) << Property(db.get(), "background-error");
  db->WaitForIdle();
  ASSERT_TRUE(db->Flush().ok());
  db->WaitForIdle();  // let compactions settle before picking a live SST
  EXPECT_NE(Property(db.get(), "error-recoveries"), "0");

  // (b) A single flipped ciphertext bit in a live SST on the primary
  // medium (below the replication tee: the replica copy stays good).
  const std::vector<std::string> ssts = ListSstFiles(backing.get());
  ASSERT_FALSE(ssts.empty());
  const std::string fname = std::string(kDbName) + "/" + ssts[0];
  {
    uint64_t size = 0;
    ASSERT_TRUE(backing->GetFileSize(fname, &size).ok());
    ASSERT_TRUE(fault_env.FlipBit(fname, (size / 4) * 8).ok());
  }

  // The scrub detects the damage and re-fetches the file verbatim from
  // the DS replica.
  ASSERT_TRUE(db->VerifyIntegrity().ok());
  EXPECT_EQ(Property(db.get(), "scrub-corruptions-detected"), "1");
  EXPECT_EQ(Property(db.get(), "scrub-repaired-files"), "1");
  EXPECT_EQ(Property(db.get(), "scrub-quarantined-files"), "1");
  EXPECT_EQ(listener->repairs, 1);
  EXPECT_TRUE(listener->last_repair_from_replica);
  EXPECT_EQ(Property(db.get(), "error-handler-state"), "active");
  EXPECT_TRUE(backing->FileExists(fname + ".quarantine"));

  // Zero acknowledged-synced keys lost: the full scan matches the
  // shadow model exactly.
  std::map<std::string, std::string> seen;
  std::unique_ptr<Iterator> iter(db->NewIterator(ReadOptions()));
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    seen[iter->key().ToString()] = iter->value().ToString();
  }
  ASSERT_TRUE(iter->status().ok()) << iter->status().ToString();
  EXPECT_EQ(seen.size(), shadow.size());
  for (const auto& [key, value] : shadow) {
    auto it = seen.find(key);
    ASSERT_TRUE(it != seen.end()) << "lost acknowledged key " << key;
    EXPECT_EQ(it->second, value) << key;
  }

  // And a second pass confirms the repaired tree is clean.
  ASSERT_TRUE(db->VerifyIntegrity().ok());
}

}  // namespace
}  // namespace shield
