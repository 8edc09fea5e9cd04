#include "shield/file_crypto.h"

#include <algorithm>
#include <functional>

#include "crypto/secure_random.h"
#include "encfs/encrypted_env.h"
#include "gtest/gtest.h"
#include "kds/local_kds.h"
#include "lsm/log_writer.h"
#include "shield/chunk_encryptor.h"
#include "test_util.h"
#include "util/random.h"
#include "util/statistics.h"

namespace shield {
namespace {

// --- File header -------------------------------------------------------

TEST(ShieldHeaderTest, EncodeParseRoundTrip) {
  ShieldFileHeader header;
  header.cipher = crypto::CipherKind::kAes128Ctr;
  header.dek_id = DekId::Generate();
  header.nonce = crypto::SecureRandomString(16);

  const std::string encoded = EncodeShieldFileHeader(header);
  EXPECT_EQ(kShieldHeaderSize, encoded.size());

  ShieldFileHeader parsed;
  ASSERT_TRUE(ParseShieldFileHeader(encoded, &parsed).ok());
  EXPECT_EQ(header.cipher, parsed.cipher);
  EXPECT_EQ(header.dek_id, parsed.dek_id);
  EXPECT_EQ(header.nonce, parsed.nonce);
}

TEST(ShieldHeaderTest, ChaChaNonceLength) {
  ShieldFileHeader header;
  header.cipher = crypto::CipherKind::kChaCha20;
  header.dek_id = DekId::Generate();
  header.nonce = crypto::SecureRandomString(12);
  ShieldFileHeader parsed;
  ASSERT_TRUE(
      ParseShieldFileHeader(EncodeShieldFileHeader(header), &parsed).ok());
  EXPECT_EQ(12u, parsed.nonce.size());
}

TEST(ShieldHeaderTest, RejectsGarbage) {
  ShieldFileHeader parsed;
  EXPECT_TRUE(ParseShieldFileHeader(Slice("too short"), &parsed)
                  .IsCorruption());
  std::string not_magic(kShieldHeaderSize, 'x');
  EXPECT_TRUE(ParseShieldFileHeader(not_magic, &parsed).IsCorruption());
}

TEST(ShieldHeaderTest, RejectsMalformedHeaders) {
  // The parser runs on attacker-supplied bytes (restore, external-SST
  // ingest): every field that is not exactly what the encoder emits
  // must fail closed. Each case mutates one byte of a valid header.
  ShieldFileHeader valid;
  valid.cipher = crypto::CipherKind::kAes128Ctr;
  valid.dek_id = DekId::Generate();
  valid.nonce = crypto::SecureRandomString(16);
  const std::string good = EncodeShieldFileHeader(valid);

  struct Case {
    const char* name;
    size_t offset;     // byte to overwrite (ignored when truncate_to set)
    char value;
    size_t truncate_to;  // when nonzero, truncate instead of mutate
    bool expect_not_supported;  // else Corruption
  };
  const Case cases[] = {
      {"truncated to magic only", 0, 0, 8, false},
      {"truncated mid-header", 0, 0, kShieldHeaderSize - 1, false},
      {"corrupt magic byte", 3, 'x', 0, false},
      {"unknown version", 8, 99, 0, true},
      {"version zero", 8, 0, 0, true},
      {"unknown cipher id", 9, 77, 0, false},
      {"nonce_len over 16", 10, 17, 0, false},
      {"nonce_len over 16 (255)", 10, static_cast<char>(255), 0, false},
      {"nonce_len mismatching cipher", 10, 12, 0, false},
      {"nonce_len zero", 10, 0, 0, false},
      {"nonzero reserved byte", 11, 1, 0, false},
  };
  for (const Case& c : cases) {
    std::string bytes = good;
    if (c.truncate_to != 0) {
      bytes.resize(c.truncate_to);
    } else {
      bytes[c.offset] = c.value;
    }
    ShieldFileHeader parsed;
    Status s = ParseShieldFileHeader(bytes, &parsed);
    EXPECT_FALSE(s.ok()) << c.name;
    if (c.expect_not_supported) {
      EXPECT_TRUE(s.IsNotSupported()) << c.name << ": " << s.ToString();
    } else {
      EXPECT_TRUE(s.IsCorruption()) << c.name << ": " << s.ToString();
    }
  }

  // Sanity: the unmutated header still parses.
  ShieldFileHeader parsed;
  EXPECT_TRUE(ParseShieldFileHeader(good, &parsed).ok());
}

TEST(ShieldHeaderTest, ReadFromFile) {
  auto env = NewMemEnv();
  ShieldFileHeader header;
  header.cipher = crypto::CipherKind::kAes256Ctr;
  header.dek_id = DekId::Generate();
  header.nonce = crypto::SecureRandomString(16);
  ASSERT_TRUE(WriteStringToFile(env.get(),
                                EncodeShieldFileHeader(header) + "payload",
                                "/f", false)
                  .ok());
  ShieldFileHeader parsed;
  ASSERT_TRUE(ReadShieldFileHeader(env.get(), "/f", &parsed).ok());
  EXPECT_EQ(header.dek_id, parsed.dek_id);
}

// --- ChunkEncryptor -------------------------------------------------------

TEST(ChunkEncryptorTest, ParallelMatchesSerial) {
  std::unique_ptr<crypto::StreamCipher> cipher;
  ASSERT_TRUE(crypto::NewStreamCipher(crypto::CipherKind::kAes128Ctr,
                                      crypto::SecureRandomString(16),
                                      crypto::SecureRandomString(16), &cipher)
                  .ok());

  Random rnd(77);
  std::string data(512 * 1024, '\0');
  for (auto& c : data) {
    c = static_cast<char>(rnd.Uniform(256));
  }

  std::string serial = data;
  ChunkEncryptor serial_encryptor(cipher.get(), nullptr, 1);
  serial_encryptor.Encrypt(1000, serial.data(), serial.size());

  ThreadPool pool(4);
  std::string parallel = data;
  ChunkEncryptor parallel_encryptor(cipher.get(), &pool, 4);
  parallel_encryptor.Encrypt(1000, parallel.data(), parallel.size());

  EXPECT_EQ(serial, parallel);
}

TEST(ChunkEncryptorTest, SmallBuffersStaySerial) {
  std::unique_ptr<crypto::StreamCipher> cipher;
  ASSERT_TRUE(crypto::NewStreamCipher(crypto::CipherKind::kAes128Ctr,
                                      crypto::SecureRandomString(16),
                                      crypto::SecureRandomString(16), &cipher)
                  .ok());
  ThreadPool pool(2);
  ChunkEncryptor encryptor(cipher.get(), &pool, 2);
  std::string tiny(100, 't');
  const std::string original = tiny;
  encryptor.Encrypt(0, tiny.data(), tiny.size());  // must not deadlock
  EXPECT_NE(original, tiny);
}

// Regression test for the tail-shard computation: buffer sizes at exact
// shard multiples (and one byte either side) must neither drop bytes
// nor schedule an empty shard whose `n - begin` underflows. Every
// combination must match the serial result, and a second pass must
// restore the plaintext (CTR is its own inverse).
TEST(ChunkEncryptorTest, ShardBoundarySizes) {
  std::unique_ptr<crypto::StreamCipher> cipher;
  ASSERT_TRUE(crypto::NewStreamCipher(crypto::CipherKind::kAes128Ctr,
                                      crypto::SecureRandomString(16),
                                      crypto::SecureRandomString(16), &cipher)
                  .ok());
  ThreadPool pool(4);
  Random rnd(123);
  const size_t kShard = ChunkEncryptor::kMinShardBytes;
  for (size_t multiple : {1u, 2u, 3u, 4u}) {
    for (int delta : {-1, 0, 1}) {
      const size_t n = multiple * kShard + delta;
      std::string data(n, '\0');
      for (auto& c : data) {
        c = static_cast<char>(rnd.Uniform(256));
      }
      std::string serial = data;
      ChunkEncryptor serial_encryptor(cipher.get(), nullptr, 1);
      ASSERT_TRUE(serial_encryptor.Encrypt(4096, serial.data(), n).ok());

      // Thread counts below, at, and far above the shard count the
      // buffer can sustain (the last forces the shards-clamp path).
      for (int threads : {2, 3, 4, 64}) {
        std::string parallel = data;
        ChunkEncryptor encryptor(cipher.get(), &pool, threads);
        ASSERT_TRUE(encryptor.Encrypt(4096, parallel.data(), n).ok())
            << "n=" << n << " threads=" << threads;
        EXPECT_EQ(serial, parallel) << "n=" << n << " threads=" << threads;
        ASSERT_TRUE(encryptor.Encrypt(4096, parallel.data(), n).ok());
        EXPECT_EQ(data, parallel) << "decrypt n=" << n
                                  << " threads=" << threads;
      }
    }
  }
}

// --- ShieldFileFactory -----------------------------------------------------

class ShieldFactoryTest : public ::testing::Test {
 protected:
  ShieldFactoryTest()
      : env_(NewMemEnv()),
        kds_(std::make_shared<LocalKds>()),
        dek_manager_(kds_.get(), "test-server", nullptr) {}

  std::unique_ptr<DataFileFactory> MakeFactory(EncryptionOptions opts = {}) {
    opts.mode = EncryptionMode::kShield;
    return NewShieldFileFactory(env_.get(), &dek_manager_, opts, nullptr);
  }

  std::unique_ptr<Env> env_;
  std::shared_ptr<LocalKds> kds_;
  DekManager dek_manager_;
};

TEST_F(ShieldFactoryTest, WriteReadRoundTrip) {
  auto factory = MakeFactory();
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(
        factory->NewWritableFile("/000001.sst", FileKind::kSst, &file).ok());
    ASSERT_TRUE(file->Append("hello encrypted world").ok());
    ASSERT_TRUE(file->Close().ok());
  }
  {
    std::unique_ptr<RandomAccessFile> file;
    ASSERT_TRUE(factory->NewRandomAccessFile("/000001.sst", &file).ok());
    char scratch[64];
    Slice result;
    ASSERT_TRUE(file->Read(6, 9, &result, scratch).ok());
    EXPECT_EQ("encrypted", result.ToString());
    uint64_t size;
    ASSERT_TRUE(file->Size(&size).ok());
    EXPECT_EQ(strlen("hello encrypted world"), size);
  }
  {
    std::unique_ptr<SequentialFile> file;
    ASSERT_TRUE(factory->NewSequentialFile("/000001.sst", &file).ok());
    char scratch[64];
    Slice result;
    ASSERT_TRUE(file->Read(5, &result, scratch).ok());
    EXPECT_EQ("hello", result.ToString());
  }
}

TEST_F(ShieldFactoryTest, CiphertextOnDisk) {
  auto factory = MakeFactory();
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(
      factory->NewWritableFile("/000002.sst", FileKind::kSst, &file).ok());
  ASSERT_TRUE(file->Append("SUPER_SECRET_PAYLOAD").ok());
  ASSERT_TRUE(file->Close().ok());

  std::string raw;
  ASSERT_TRUE(ReadFileToString(env_.get(), "/000002.sst", &raw).ok());
  EXPECT_EQ(std::string::npos, raw.find("SUPER_SECRET_PAYLOAD"));
  EXPECT_EQ(kShieldHeaderSize + strlen("SUPER_SECRET_PAYLOAD"), raw.size());
}

TEST_F(ShieldFactoryTest, WalBufferSemantics) {
  EncryptionOptions opts;
  opts.wal_buffer_size = 512;
  auto factory = MakeFactory(opts);

  std::unique_ptr<WritableFile> wal;
  ASSERT_TRUE(
      factory->NewWritableFile("/000003.log", FileKind::kWal, &wal).ok());
  ASSERT_TRUE(wal->Append("record-1").ok());
  ASSERT_TRUE(wal->Flush().ok());

  // Below threshold + not synced: only the header is on storage.
  uint64_t raw_size;
  ASSERT_TRUE(env_->GetFileSize("/000003.log", &raw_size).ok());
  EXPECT_EQ(kShieldHeaderSize, raw_size);
  // But the logical size includes the buffered bytes.
  EXPECT_EQ(strlen("record-1"), wal->GetFileSize());

  // Sync drains the buffer (encrypted).
  ASSERT_TRUE(wal->Sync().ok());
  ASSERT_TRUE(env_->GetFileSize("/000003.log", &raw_size).ok());
  EXPECT_EQ(kShieldHeaderSize + strlen("record-1"), raw_size);
  ASSERT_TRUE(wal->Close().ok());
}

TEST_F(ShieldFactoryTest, WalBufferDrainsAtThreshold) {
  EncryptionOptions opts;
  opts.wal_buffer_size = 64;
  auto factory = MakeFactory(opts);
  std::unique_ptr<WritableFile> wal;
  ASSERT_TRUE(
      factory->NewWritableFile("/000004.log", FileKind::kWal, &wal).ok());
  ASSERT_TRUE(wal->Append(std::string(100, 'r')).ok());
  uint64_t raw_size;
  ASSERT_TRUE(env_->GetFileSize("/000004.log", &raw_size).ok());
  EXPECT_EQ(kShieldHeaderSize + 100, raw_size);
  ASSERT_TRUE(wal->Close().ok());
}

// Log records reach a WAL as sealed units. Only a WAL buffer drains:
// an unbuffered WAL encrypts and tags each record as it is appended and
// ticks no drain, a buffered one drains once, on Close.
TEST_F(ShieldFactoryTest, OnlyBufferedWalsTickDrains) {
  for (size_t buffer_size : {0, 512}) {
    SCOPED_TRACE("wal_buffer_size " + std::to_string(buffer_size));
    EncryptionOptions opts;
    opts.mode = EncryptionMode::kShield;
    opts.wal_buffer_size = buffer_size;
    auto stats = CreateDBStatistics();
    auto factory = NewShieldFileFactory(env_.get(), &dek_manager_, opts,
                                        nullptr, stats.get());
    std::unique_ptr<WritableFile> wal;
    ASSERT_TRUE(
        factory->NewWritableFile("/000005.log", FileKind::kWal, &wal).ok());
    ASSERT_NE(nullptr, wal->block_authenticator());
    log::Writer writer(wal.get());
    for (int i = 0; i < 10; i++) {
      ASSERT_TRUE(writer.AddRecord("record-" + std::to_string(i)).ok());
    }
    uint64_t raw_size;
    ASSERT_TRUE(env_->GetFileSize("/000005.log", &raw_size).ok());
    EXPECT_EQ(kShieldHeaderSize + (buffer_size == 0 ? writer.logical_offset()
                                                    : 0),
              raw_size);
    ASSERT_TRUE(wal->Close().ok());
    EXPECT_EQ(buffer_size == 0 ? 0u : 1u,
              stats->GetTickerCount(Tickers::kShieldWalBufferDrains));
    EXPECT_EQ(10u, stats->GetTickerCount(Tickers::kCryptoHmacComputed));
  }
}

TEST_F(ShieldFactoryTest, EachFileUniqueDek) {
  auto factory = MakeFactory();
  for (int i = 0; i < 3; i++) {
    std::unique_ptr<WritableFile> file;
    const std::string name = "/00000" + std::to_string(i) + ".sst";
    ASSERT_TRUE(factory->NewWritableFile(name, FileKind::kSst, &file).ok());
    ASSERT_TRUE(file->Append("x").ok());
    ASSERT_TRUE(file->Close().ok());
  }
  std::set<std::string> ids;
  for (int i = 0; i < 3; i++) {
    ShieldFileHeader header;
    const std::string name = "/00000" + std::to_string(i) + ".sst";
    ASSERT_TRUE(ReadShieldFileHeader(env_.get(), name, &header).ok());
    ids.insert(header.dek_id.ToHex());
  }
  EXPECT_EQ(3u, ids.size());
  EXPECT_EQ(3u, kds_->NumDeks());
}

TEST_F(ShieldFactoryTest, DeleteFileDestroysDek) {
  auto factory = MakeFactory();
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(
      factory->NewWritableFile("/000009.sst", FileKind::kSst, &file).ok());
  ASSERT_TRUE(file->Append("doomed").ok());
  ASSERT_TRUE(file->Close().ok());

  ShieldFileHeader header;
  ASSERT_TRUE(ReadShieldFileHeader(env_.get(), "/000009.sst", &header).ok());
  ASSERT_TRUE(factory->DeleteFile("/000009.sst").ok());

  Dek dek;
  EXPECT_TRUE(kds_->GetDek("anyone", header.dek_id, &dek).IsNotFound());
  EXPECT_FALSE(env_->FileExists("/000009.sst"));
}

TEST_F(ShieldFactoryTest, PlaintextWalKnob) {
  EncryptionOptions opts;
  opts.encrypt_wal = false;
  auto factory = MakeFactory(opts);

  std::unique_ptr<WritableFile> wal;
  ASSERT_TRUE(
      factory->NewWritableFile("/000010.log", FileKind::kWal, &wal).ok());
  ASSERT_TRUE(wal->Append("PLAINTEXT_WAL_RECORD").ok());
  ASSERT_TRUE(wal->Close().ok());

  std::string raw;
  ASSERT_TRUE(ReadFileToString(env_.get(), "/000010.log", &raw).ok());
  EXPECT_NE(std::string::npos, raw.find("PLAINTEXT_WAL_RECORD"));

  // Readers transparently fall back to plaintext.
  std::unique_ptr<SequentialFile> reader;
  ASSERT_TRUE(factory->NewSequentialFile("/000010.log", &reader).ok());
  char scratch[64];
  Slice result;
  ASSERT_TRUE(reader->Read(20, &result, scratch).ok());
  EXPECT_EQ("PLAINTEXT_WAL_RECORD", result.ToString());

  // SSTs are still encrypted under the knob.
  std::unique_ptr<WritableFile> sst;
  ASSERT_TRUE(
      factory->NewWritableFile("/000011.sst", FileKind::kSst, &sst).ok());
  ASSERT_TRUE(sst->Append("SST_SECRET").ok());
  ASSERT_TRUE(sst->Close().ok());
  ASSERT_TRUE(ReadFileToString(env_.get(), "/000011.sst", &raw).ok());
  EXPECT_EQ(std::string::npos, raw.find("SST_SECRET"));
}

TEST_F(ShieldFactoryTest, CrossManagerSharing) {
  // Worker resolves a file written by the primary purely from the
  // header DEK-ID (metadata-enabled sharing).
  auto factory = MakeFactory();
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(
      factory->NewWritableFile("/000012.sst", FileKind::kSst, &file).ok());
  ASSERT_TRUE(file->Append("shared across servers").ok());
  ASSERT_TRUE(file->Close().ok());

  Statistics worker_stats;
  DekManager worker_manager(kds_.get(), "worker", nullptr, &worker_stats);
  EncryptionOptions opts;
  opts.mode = EncryptionMode::kShield;
  auto worker_factory =
      NewShieldFileFactory(env_.get(), &worker_manager, opts, nullptr);
  std::unique_ptr<SequentialFile> reader;
  ASSERT_TRUE(worker_factory->NewSequentialFile("/000012.sst", &reader).ok());
  char scratch[64];
  Slice result;
  ASSERT_TRUE(reader->Read(21, &result, scratch).ok());
  EXPECT_EQ("shared across servers", result.ToString());
  EXPECT_EQ(1u, worker_stats.GetTickerCount(Tickers::kKdsRequests));
}

// --- Header read at open, both modes ----------------------------------

// Serves the first positional read of the next file opened after
// ArmShortRead() only 5 bytes, as an interrupted read may.
class OneShortReadEnv final : public EnvWrapper {
 public:
  explicit OneShortReadEnv(Env* base) : EnvWrapper(base) {}

  void ArmShortRead() { armed_ = true; }
  bool armed() const { return armed_; }

  Status NewRandomAccessFile(const std::string& f,
                             std::unique_ptr<RandomAccessFile>* r) override {
    Status s = target()->NewRandomAccessFile(f, r);
    if (s.ok() && armed_) {
      armed_ = false;
      *r = std::make_unique<ShortOnce>(std::move(*r));
    }
    return s;
  }

 private:
  class ShortOnce final : public RandomAccessFile {
   public:
    explicit ShortOnce(std::unique_ptr<RandomAccessFile> base)
        : base_(std::move(base)) {}
    Status Read(uint64_t offset, size_t n, Slice* result,
                char* scratch) const override {
      if (!shortened_) {
        shortened_ = true;
        n = std::min<size_t>(n, 5);
      }
      return base_->Read(offset, n, result, scratch);
    }
    Status Size(uint64_t* size) const override { return base_->Size(size); }

   private:
    std::unique_ptr<RandomAccessFile> base_;
    mutable bool shortened_ = false;
  };

  bool armed_ = false;
};

// A short header read at open is retried, not taken for a corrupt file,
// in both designs: they share one header reader.
TEST(HeaderReadTest, ShortReadAtOpenIsRetriedInBothModes) {
  auto mem = NewMemEnv();
  OneShortReadEnv env(mem.get());

  std::unique_ptr<Env> encfs;
  ASSERT_TRUE(NewEncryptedEnv(&env, crypto::CipherKind::kAes128Ctr,
                              crypto::SecureRandomString(16), &encfs)
                  .ok());
  ASSERT_TRUE(WriteStringToFile(encfs.get(), "encfs payload", "/e", false)
                  .ok());

  LocalKds kds;
  DekManager dek_manager(&kds, "test-server", nullptr);
  EncryptionOptions opts;
  opts.mode = EncryptionMode::kShield;
  auto shield = NewShieldFileFactory(&env, &dek_manager, opts, nullptr);
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(shield->NewWritableFile("/000001.sst", FileKind::kSst, &file)
                    .ok());
    ASSERT_TRUE(file->Append("shield payload").ok());
    ASSERT_TRUE(file->Close().ok());
  }

  const struct {
    const char* mode;
    std::function<Status(std::unique_ptr<RandomAccessFile>*)> open;
    std::string want;
  } cases[] = {
      {"EncFS",
       [&](std::unique_ptr<RandomAccessFile>* f) {
         return encfs->NewRandomAccessFile("/e", f);
       },
       "encfs payload"},
      {"SHIELD",
       [&](std::unique_ptr<RandomAccessFile>* f) {
         return shield->NewRandomAccessFile("/000001.sst", f);
       },
       "shield payload"},
  };
  for (const auto& c : cases) {
    env.ArmShortRead();
    std::unique_ptr<RandomAccessFile> file;
    Status s = c.open(&file);
    ASSERT_TRUE(s.ok()) << c.mode << ": " << s.ToString();
    EXPECT_FALSE(env.armed()) << c.mode << ": the short read never happened";
    char scratch[64];
    Slice result;
    ASSERT_TRUE(file->Read(0, c.want.size(), &result, scratch).ok());
    EXPECT_EQ(c.want, result.ToString()) << c.mode;
  }
}

}  // namespace
}  // namespace shield
