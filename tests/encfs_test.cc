#include "encfs/encrypted_env.h"

#include <utility>
#include <vector>

#include "crypto/secure_random.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace shield {
namespace {

class EncFsTest : public ::testing::Test {
 protected:
  EncFsTest() : base_(NewMemEnv()) {
    key_ = crypto::SecureRandomString(16);
    Status s = NewEncryptedEnv(base_.get(), crypto::CipherKind::kAes128Ctr,
                               key_, &env_);
    EXPECT_TRUE(s.ok());
  }

  std::unique_ptr<Env> base_;
  std::unique_ptr<Env> env_;
  std::string key_;
};

TEST_F(EncFsTest, RoundTrip) {
  ASSERT_TRUE(
      WriteStringToFile(env_.get(), "secret payload", "/f", true).ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env_.get(), "/f", &contents).ok());
  EXPECT_EQ("secret payload", contents);
}

TEST_F(EncFsTest, CiphertextOnDisk) {
  const std::string plaintext = "THIS_IS_SENSITIVE_CLIENT_DATA";
  ASSERT_TRUE(WriteStringToFile(env_.get(), plaintext, "/f", true).ok());

  // The raw (base env) file must not contain the plaintext.
  std::string raw;
  ASSERT_TRUE(ReadFileToString(base_.get(), "/f", &raw).ok());
  EXPECT_EQ(std::string::npos, raw.find(plaintext));
  EXPECT_EQ(kEncFsHeaderSize + plaintext.size(), raw.size());
}

TEST_F(EncFsTest, RandomAccessDecryptsAtOffsets) {
  std::string payload;
  for (int i = 0; i < 1000; i++) {
    payload += "block" + std::to_string(i) + ";";
  }
  ASSERT_TRUE(WriteStringToFile(env_.get(), payload, "/f", false).ok());

  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env_->NewRandomAccessFile("/f", &file).ok());
  char scratch[64];
  Slice result;
  ASSERT_TRUE(file->Read(100, 20, &result, scratch).ok());
  EXPECT_EQ(payload.substr(100, 20), result.ToString());
  ASSERT_TRUE(file->Read(payload.size() - 5, 64, &result, scratch).ok());
  EXPECT_EQ(payload.substr(payload.size() - 5), result.ToString());

  uint64_t size;
  ASSERT_TRUE(file->Size(&size).ok());
  EXPECT_EQ(payload.size(), size);
}

TEST_F(EncFsTest, GetFileSizeHidesHeader) {
  ASSERT_TRUE(WriteStringToFile(env_.get(), "12345", "/f", false).ok());
  uint64_t size;
  ASSERT_TRUE(env_->GetFileSize("/f", &size).ok());
  EXPECT_EQ(5u, size);
  uint64_t raw_size;
  ASSERT_TRUE(base_->GetFileSize("/f", &raw_size).ok());
  EXPECT_EQ(kEncFsHeaderSize + 5, raw_size);
}

TEST_F(EncFsTest, WrongKeyYieldsGarbage) {
  ASSERT_TRUE(
      WriteStringToFile(env_.get(), "top secret value", "/f", false).ok());

  std::unique_ptr<Env> wrong_env;
  ASSERT_TRUE(NewEncryptedEnv(base_.get(), crypto::CipherKind::kAes128Ctr,
                              crypto::SecureRandomString(16), &wrong_env)
                  .ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(wrong_env.get(), "/f", &contents).ok());
  EXPECT_NE("top secret value", contents);
}

TEST_F(EncFsTest, DistinctFilesUseDistinctNonces) {
  // Same plaintext twice must produce different ciphertext (per-file
  // random nonce prevents keystream reuse under the shared DEK).
  const std::string plaintext(256, 'p');
  ASSERT_TRUE(WriteStringToFile(env_.get(), plaintext, "/a", false).ok());
  ASSERT_TRUE(WriteStringToFile(env_.get(), plaintext, "/b", false).ok());

  std::string raw_a, raw_b;
  ASSERT_TRUE(ReadFileToString(base_.get(), "/a", &raw_a).ok());
  ASSERT_TRUE(ReadFileToString(base_.get(), "/b", &raw_b).ok());
  EXPECT_NE(raw_a.substr(kEncFsHeaderSize), raw_b.substr(kEncFsHeaderSize));
}

TEST_F(EncFsTest, RejectsWrongKeySize) {
  std::unique_ptr<Env> env;
  EXPECT_TRUE(NewEncryptedEnv(base_.get(), crypto::CipherKind::kAes128Ctr,
                              "tooshort", &env)
                  .IsInvalidArgument());
}

TEST_F(EncFsTest, ChaCha20Variant) {
  std::unique_ptr<Env> chacha_env;
  ASSERT_TRUE(NewEncryptedEnv(base_.get(), crypto::CipherKind::kChaCha20,
                              crypto::SecureRandomString(32), &chacha_env)
                  .ok());
  ASSERT_TRUE(
      WriteStringToFile(chacha_env.get(), "chacha data", "/cc", false).ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(chacha_env.get(), "/cc", &contents).ok());
  EXPECT_EQ("chacha data", contents);

  std::string raw;
  ASSERT_TRUE(ReadFileToString(base_.get(), "/cc", &raw).ok());
  EXPECT_EQ(std::string::npos, raw.find("chacha data"));
}

TEST_F(EncFsTest, NonEncryptedFileRejected) {
  ASSERT_TRUE(WriteStringToFile(base_.get(), "plain", "/raw", false).ok());
  std::string contents;
  Status s = ReadFileToString(env_.get(), "/raw", &contents);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(EncFsTest, WalBufferDefersWrites) {
  std::unique_ptr<Env> buffered_env;
  ASSERT_TRUE(NewEncryptedEnv(base_.get(), crypto::CipherKind::kAes128Ctr,
                              key_, &buffered_env,
                              /*wal_buffer_size=*/512)
                  .ok());

  std::unique_ptr<WritableFile> wal;
  ASSERT_TRUE(buffered_env->NewWritableFile("/000001.log", &wal).ok());
  ASSERT_TRUE(wal->Append("tiny record").ok());
  ASSERT_TRUE(wal->Flush().ok());

  // Data is still in the application buffer: the base file holds only
  // the header.
  uint64_t raw_size;
  ASSERT_TRUE(base_->GetFileSize("/000001.log", &raw_size).ok());
  EXPECT_EQ(kEncFsHeaderSize, raw_size);

  // Sync forces encryption + persistence.
  ASSERT_TRUE(wal->Sync().ok());
  ASSERT_TRUE(base_->GetFileSize("/000001.log", &raw_size).ok());
  EXPECT_EQ(kEncFsHeaderSize + strlen("tiny record"), raw_size);
  ASSERT_TRUE(wal->Close().ok());

  std::string contents;
  ASSERT_TRUE(
      ReadFileToString(buffered_env.get(), "/000001.log", &contents).ok());
  EXPECT_EQ("tiny record", contents);
}

TEST_F(EncFsTest, WalBufferDrainsWhenFull) {
  std::unique_ptr<Env> buffered_env;
  ASSERT_TRUE(NewEncryptedEnv(base_.get(), crypto::CipherKind::kAes128Ctr,
                              key_, &buffered_env, /*wal_buffer_size=*/64)
                  .ok());
  std::unique_ptr<WritableFile> wal;
  ASSERT_TRUE(buffered_env->NewWritableFile("/000002.log", &wal).ok());
  ASSERT_TRUE(wal->Append(std::string(100, 'r')).ok());  // over threshold

  uint64_t raw_size;
  ASSERT_TRUE(base_->GetFileSize("/000002.log", &raw_size).ok());
  EXPECT_EQ(kEncFsHeaderSize + 100, raw_size);
  ASSERT_TRUE(wal->Close().ok());
}

TEST_F(EncFsTest, NonWalFilesNotBuffered) {
  std::unique_ptr<Env> buffered_env;
  ASSERT_TRUE(NewEncryptedEnv(base_.get(), crypto::CipherKind::kAes128Ctr,
                              key_, &buffered_env, /*wal_buffer_size=*/4096)
                  .ok());
  std::unique_ptr<WritableFile> sst;
  ASSERT_TRUE(buffered_env->NewWritableFile("/000003.sst", &sst).ok());
  ASSERT_TRUE(sst->Append("immediate").ok());
  uint64_t raw_size;
  ASSERT_TRUE(base_->GetFileSize("/000003.sst", &raw_size).ok());
  EXPECT_EQ(kEncFsHeaderSize + strlen("immediate"), raw_size);
  ASSERT_TRUE(sst->Close().ok());
}

TEST(EncFsHeaderTest, RejectsMalformedHeaders) {
  // Opening a file runs the header parser on bytes anyone with access
  // to the medium controls: every field that is not what the writer
  // emits for this instance must fail closed, for random-access and
  // sequential opens alike. Each case edits a valid AES-256 header.
  auto base = NewMemEnv();
  std::unique_ptr<Env> env;
  ASSERT_TRUE(NewEncryptedEnv(base.get(), crypto::CipherKind::kAes256Ctr,
                              crypto::SecureRandomString(32), &env)
                  .ok());
  ASSERT_TRUE(WriteStringToFile(env.get(), "payload", "/f", false).ok());
  std::string good;
  ASSERT_TRUE(ReadFileToString(base.get(), "/f", &good).ok());

  const char kChaCha = static_cast<char>(crypto::CipherKind::kChaCha20);
  const char kAes128 = static_cast<char>(crypto::CipherKind::kAes128Ctr);
  struct Case {
    const char* name;
    std::vector<std::pair<size_t, char>> edits;  // (offset, new byte)
    size_t truncate_to;  // when nonzero, truncate instead
  };
  const Case cases[] = {
      {"truncated to magic only", {}, 8},
      {"truncated mid-header", {}, kEncFsHeaderSize - 1},
      {"corrupt magic byte", {{3, 'x'}}, 0},
      {"unknown cipher id", {{8, 0x7f}}, 0},
      {"cipher id zero", {{8, 0}}, 0},
      {"AES-128 under an AES-256 instance key", {{8, kAes128}}, 0},
      {"ChaCha20 with its own nonce length", {{8, kChaCha}, {9, 12}}, 0},
      {"nonce_len over 16", {{9, 17}}, 0},
      {"nonce_len over 16 (255)", {{9, static_cast<char>(255)}}, 0},
      {"nonce_len mismatching cipher", {{9, 12}}, 0},
      {"nonce_len zero", {{9, 0}}, 0},
  };
  for (const Case& c : cases) {
    std::string bytes = good;
    if (c.truncate_to != 0) {
      bytes.resize(c.truncate_to);
    }
    for (const auto& [offset, value] : c.edits) {
      bytes[offset] = value;
    }
    ASSERT_TRUE(WriteStringToFile(base.get(), bytes, "/bad", false).ok());
    std::unique_ptr<RandomAccessFile> random;
    Status s = env->NewRandomAccessFile("/bad", &random);
    EXPECT_TRUE(s.IsCorruption()) << c.name << ": " << s.ToString();
    std::unique_ptr<SequentialFile> sequential;
    s = env->NewSequentialFile("/bad", &sequential);
    EXPECT_TRUE(s.IsCorruption()) << c.name << ": " << s.ToString();
  }

  // Sanity: the unedited file still opens and reads back.
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env.get(), "/f", &contents).ok());
  EXPECT_EQ("payload", contents);
}

}  // namespace
}  // namespace shield
