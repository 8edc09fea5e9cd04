#include <algorithm>
#include <cstring>
#include <iostream>

#include "crypto/aes.h"
#include "crypto/aes_ctr_kernels.h"
#include "crypto/chacha20.h"
#include "crypto/cipher.h"
#include "crypto/hkdf.h"
#include "crypto/hmac.h"
#include "crypto/secure_random.h"
#include "crypto/sha256.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/random.h"

namespace shield {
namespace crypto {
namespace {

using test::FromHex;
using test::ToHex;

// --- AES block cipher: FIPS-197 Appendix C vectors ---------------------

TEST(AesTest, Fips197Aes128) {
  Aes aes;
  ASSERT_TRUE(aes.Init(FromHex("000102030405060708090a0b0c0d0e0f")).ok());
  const std::string pt = FromHex("00112233445566778899aabbccddeeff");
  uint8_t ct[16];
  aes.EncryptBlock(reinterpret_cast<const uint8_t*>(pt.data()), ct);
  EXPECT_EQ("69c4e0d86a7b0430d8cdb78070b4c55a",
            ToHex(std::string(reinterpret_cast<char*>(ct), 16)));
}

TEST(AesTest, Fips197Aes192) {
  Aes aes;
  ASSERT_TRUE(
      aes.Init(FromHex("000102030405060708090a0b0c0d0e0f1011121314151617"))
          .ok());
  const std::string pt = FromHex("00112233445566778899aabbccddeeff");
  uint8_t ct[16];
  aes.EncryptBlock(reinterpret_cast<const uint8_t*>(pt.data()), ct);
  EXPECT_EQ("dda97ca4864cdfe06eaf70a0ec0d7191",
            ToHex(std::string(reinterpret_cast<char*>(ct), 16)));
}

TEST(AesTest, Fips197Aes256) {
  Aes aes;
  ASSERT_TRUE(
      aes.Init(FromHex("000102030405060708090a0b0c0d0e0f"
                       "101112131415161718191a1b1c1d1e1f"))
          .ok());
  const std::string pt = FromHex("00112233445566778899aabbccddeeff");
  uint8_t ct[16];
  aes.EncryptBlock(reinterpret_cast<const uint8_t*>(pt.data()), ct);
  EXPECT_EQ("8ea2b7ca516745bfeafc49904b496089",
            ToHex(std::string(reinterpret_cast<char*>(ct), 16)));
}

TEST(AesTest, RejectsBadKeySizes) {
  Aes aes;
  EXPECT_FALSE(aes.Init(std::string(15, 'k')).ok());
  EXPECT_FALSE(aes.Init(std::string(17, 'k')).ok());
  EXPECT_FALSE(aes.Init(std::string(0, 'k')).ok());
}

TEST(AesTest, InPlaceEncryption) {
  Aes aes;
  ASSERT_TRUE(aes.Init(FromHex("000102030405060708090a0b0c0d0e0f")).ok());
  std::string buf = FromHex("00112233445566778899aabbccddeeff");
  uint8_t* p = reinterpret_cast<uint8_t*>(buf.data());
  aes.EncryptBlock(p, p);  // aliased in/out
  EXPECT_EQ("69c4e0d86a7b0430d8cdb78070b4c55a", ToHex(buf));
}

// --- AES-CTR: NIST SP 800-38A F.5.1 -------------------------------------

TEST(AesCtrTest, Sp800_38aVectors) {
  std::unique_ptr<StreamCipher> cipher;
  ASSERT_TRUE(NewStreamCipher(
                  CipherKind::kAes128Ctr,
                  FromHex("2b7e151628aed2a6abf7158809cf4f3c"),
                  FromHex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"), &cipher)
                  .ok());

  std::string pt =
      FromHex("6bc1bee22e409f96e93d7e117393172a"
              "ae2d8a571e03ac9c9eb76fac45af8e51"
              "30c81c46a35ce411e5fbc1191a0a52ef"
              "f69f2445df4f9b17ad2b417be66c3710");
  cipher->CryptAt(0, pt.data(), pt.size());
  EXPECT_EQ(
      "874d6191b620e3261bef6864990db6ce"
      "9806f66b7970fdff8617187bb9fffdff"
      "5ae4df3edbd5d35e5b4f09020db03eab"
      "1e031dda2fbe03d1792170a0f3009cee",
      ToHex(pt));
}

TEST(AesCtrTest, OffsetAddressing) {
  // Encrypting bytes [16, 32) separately must equal the same range of
  // a single full-stream encryption (CTR seekability).
  const std::string key = FromHex("2b7e151628aed2a6abf7158809cf4f3c");
  const std::string nonce = FromHex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  std::unique_ptr<StreamCipher> cipher;
  ASSERT_TRUE(
      NewStreamCipher(CipherKind::kAes128Ctr, key, nonce, &cipher).ok());

  std::string full(64, 'a');
  cipher->CryptAt(0, full.data(), full.size());

  std::string part(16, 'a');
  cipher->CryptAt(16, part.data(), part.size());
  EXPECT_EQ(full.substr(16, 16), part);

  // Unaligned offsets too.
  std::string odd(13, 'a');
  cipher->CryptAt(7, odd.data(), odd.size());
  EXPECT_EQ(full.substr(7, 13), odd);
}

TEST(AesCtrTest, RoundTrip) {
  std::unique_ptr<StreamCipher> cipher;
  ASSERT_TRUE(NewStreamCipher(CipherKind::kAes256Ctr,
                              SecureRandomString(32), SecureRandomString(16),
                              &cipher)
                  .ok());
  const std::string original = "the quick brown fox jumps over the lazy dog";
  std::string buf = original;
  cipher->CryptAt(1234, buf.data(), buf.size());
  EXPECT_NE(original, buf);
  cipher->CryptAt(1234, buf.data(), buf.size());
  EXPECT_EQ(original, buf);
}

// Reference CTR keystream, independent of the kernels: block b of the
// stream is E_k(nonce + b), one EncryptBlock per block, with the 128-bit
// big-endian addition carried byte by byte.
std::string ReferenceKeystream(const Aes& aes, const std::string& nonce,
                               uint64_t offset, size_t n) {
  std::string out(n, '\0');
  size_t i = 0;
  while (i < n) {
    uint8_t counter[16];
    memcpy(counter, nonce.data(), 16);
    uint64_t carry = (offset + i) / 16;
    for (int b = 15; b >= 0 && carry != 0; b--) {
      const uint64_t sum = counter[b] + (carry & 0xff);
      counter[b] = static_cast<uint8_t>(sum);
      carry = (carry >> 8) + (sum >> 8);
    }
    uint8_t keystream[16];
    aes.EncryptBlock(counter, keystream);
    const size_t in_block = (offset + i) % 16;
    const size_t take = std::min<size_t>(16 - in_block, n - i);
    memcpy(&out[i], keystream + in_block, take);
    i += take;
  }
  return out;
}

std::string Xor(std::string a, const std::string& b) {
  for (size_t i = 0; i < a.size(); i++) {
    a[i] = static_cast<char>(a[i] ^ b[i]);
  }
  return a;
}

TEST(AesCtrTest, CounterCarryAcrossBlockBoundary) {
  // An all-0xff nonce wraps the whole 128-bit counter to zero after the
  // first block; a nonce ending in 0xff..ff carries from the low 64
  // bits into the high 64. Both must match the block-by-block reference.
  const std::string key = FromHex("2b7e151628aed2a6abf7158809cf4f3c");
  Aes aes;
  ASSERT_TRUE(aes.Init(key).ok());
  for (const std::string& nonce :
       {std::string(16, '\xff'),
        FromHex("0123456789abcdefffffffffffffffff")}) {
    std::unique_ptr<StreamCipher> cipher;
    ASSERT_TRUE(
        NewStreamCipher(CipherKind::kAes128Ctr, key, nonce, &cipher).ok());
    for (uint64_t offset : {0, 5, 16}) {
      const std::string plain(300, 'z');
      std::string buf = plain;
      ASSERT_TRUE(cipher->CryptAt(offset, buf.data(), buf.size()).ok());
      EXPECT_EQ(ToHex(Xor(plain, ReferenceKeystream(aes, nonce, offset,
                                                    plain.size()))),
                ToHex(buf))
          << "nonce " << ToHex(nonce) << " offset " << offset;
    }
  }
}

// --- AES-CTR kernel tiers: each against the reference -------------------

class CtrTierTest : public ::testing::TestWithParam<CtrTier> {
 protected:
  void SetUp() override {
    if (!CtrTierSupported(GetParam())) {
      GTEST_SKIP() << "AES-CTR tier " << CtrTierName(GetParam())
                   << " is not supported on this CPU";
    }
  }

  // CtrXorBytes on the tier under test must equal plaintext XOR the
  // reference keystream for [offset, offset + plain.size()), which
  // callers may pass precomputed.
  void ExpectMatchesReference(const Aes& aes, const std::string& nonce,
                              uint64_t offset, const std::string& plain,
                              const std::string* keystream = nullptr) {
    std::string buf = plain;
    CtrXorBytes(GetParam(), aes,
                reinterpret_cast<const uint8_t*>(nonce.data()), offset,
                reinterpret_cast<uint8_t*>(buf.data()), buf.size());
    const std::string want =
        Xor(plain, keystream != nullptr
                       ? *keystream
                       : ReferenceKeystream(aes, nonce, offset, plain.size()));
    if (buf != want) {
      FAIL() << CtrTierName(GetParam()) << " rounds " << aes.rounds()
             << " nonce " << ToHex(nonce) << " offset " << offset
             << " length " << plain.size() << "\n want " << ToHex(want)
             << "\n  got " << ToHex(buf);
    }
  }

  static std::string RandomBytes(Random* rnd, size_t n) {
    std::string s(n, '\0');
    for (char& c : s) {
      c = static_cast<char>(rnd->Next());
    }
    return s;
  }
};

TEST_P(CtrTierTest, Sp800_38aVectors) {
  // NIST SP 800-38A F.5.1, F.5.3 and F.5.5 (CTR-AES128/192/256.Encrypt).
  const std::string nonce = FromHex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  const std::string pt = FromHex(
      "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710");
  struct Vector {
    const char* key;
    const char* ct;
  };
  for (const Vector& v : {
           Vector{"2b7e151628aed2a6abf7158809cf4f3c",
                  "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187b"
                  "b9fffdff5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1"
                  "792170a0f3009cee"},
           Vector{"8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
                  "1abc932417521ca24f2b0459fe7e6e0b090339ec0aa6faefd5ccc2c6"
                  "f4ce8e941e36b26bd1ebc670d1bd1d665620abf74f78a7f6d2980958"
                  "5a97daec58c6b050"},
           Vector{"603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a3"
                  "0914dff4",
                  "601ec313775789a5b7a7f504bbf3d228f443e3ca4d62b59aca84e990"
                  "cacaf5c52b0930daa23de94ce87017ba2d84988ddfc9c58db67aada6"
                  "13c2dd08457941a6"},
       }) {
    Aes aes;
    ASSERT_TRUE(aes.Init(FromHex(v.key)).ok());
    std::string buf = pt;
    CtrXorBlocks(GetParam(), aes,
                 reinterpret_cast<const uint8_t*>(nonce.data()), 0,
                 reinterpret_cast<uint8_t*>(buf.data()), 4);
    EXPECT_EQ(v.ct, ToHex(buf)) << "key " << v.key;
  }
}

TEST_P(CtrTierTest, EveryLengthAtEveryHeadOffset) {
  Random rnd(301);
  for (size_t key_size : {16, 24, 32}) {
    Aes aes;
    ASSERT_TRUE(aes.Init(RandomBytes(&rnd, key_size)).ok());
    const std::string nonce = RandomBytes(&rnd, 16);
    const std::string plain = RandomBytes(&rnd, 300);
    const std::string stream =
        ReferenceKeystream(aes, nonce, 0, 4 * 16 + plain.size());
    for (uint64_t offset = 0; offset < 4 * 16; offset++) {
      for (size_t n = 0; n <= plain.size(); n++) {
        const std::string keystream = stream.substr(offset, n);
        ExpectMatchesReference(aes, nonce, offset, plain.substr(0, n),
                               &keystream);
        if (HasFatalFailure()) {
          return;
        }
      }
    }
  }
}

TEST_P(CtrTierTest, RandomLengthsAndOffsets) {
  Random rnd(64);
  for (int round = 0; round < 60; round++) {
    Aes aes;
    ASSERT_TRUE(aes.Init(RandomBytes(&rnd, 16 + 8 * rnd.Uniform(3))).ok());
    const std::string nonce = RandomBytes(&rnd, 16);
    const uint64_t offset = rnd.Uniform(1 << 20);
    ExpectMatchesReference(aes, nonce, offset,
                           RandomBytes(&rnd, rnd.Uniform((64 << 10) + 1)));
    if (HasFatalFailure()) {
      return;
    }
  }
}

TEST_P(CtrTierTest, LowCounterWrapsMidBuffer) {
  // The low 64 counter bits wrap k blocks into the stream: the kernel
  // splits its run there and must carry into the high half. The
  // all-0xff nonce also wraps the full 128-bit counter to zero.
  Random rnd(2);
  for (size_t key_size : {16, 24, 32}) {
    Aes aes;
    ASSERT_TRUE(aes.Init(RandomBytes(&rnd, key_size)).ok());
    for (uint64_t k = 1; k <= 40; k++) {
      std::string nonce = RandomBytes(&rnd, 8);
      for (int b = 7; b >= 0; b--) {
        nonce.push_back(static_cast<char>((~(k - 1)) >> (8 * b)));
      }
      const uint64_t offset = rnd.Uniform(48);
      ExpectMatchesReference(aes, nonce, offset,
                             RandomBytes(&rnd, rnd.Uniform(1024) + 1));
      if (HasFatalFailure()) {
        return;
      }
    }
    const std::string all_ff(16, '\xff');
    for (uint64_t offset : {0, 1, 15, 16, 17}) {
      ExpectMatchesReference(aes, all_ff, offset, RandomBytes(&rnd, 700));
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Tiers, CtrTierTest,
                         ::testing::Values(CtrTier::kPortable,
                                           CtrTier::kAesNi,
                                           CtrTier::kVaes512),
                         [](const ::testing::TestParamInfo<CtrTier>& info) {
                           return std::string(info.param ==
                                                      CtrTier::kVaes512
                                                  ? "Vaes512"
                                              : info.param == CtrTier::kAesNi
                                                  ? "AesNi"
                                                  : "Portable");
                         });

TEST(AesCtrTest, CtrXorRunsTheActiveTier) {
  Aes aes;
  ASSERT_TRUE(aes.Init(FromHex("2b7e151628aed2a6abf7158809cf4f3c")).ok());
  const std::string nonce = FromHex("00000000000000fffffffffffffffff0");
  std::string a(4096, 'a');
  std::string b = a;
  const uint8_t* n = reinterpret_cast<const uint8_t*>(nonce.data());
  aes.CtrXor(n, 3, reinterpret_cast<uint8_t*>(a.data()), a.size() / 16);
  CtrXorBlocks(CtrTier::kPortable, aes, n, 3,
               reinterpret_cast<uint8_t*>(b.data()), b.size() / 16);
  EXPECT_EQ(ToHex(b), ToHex(a)) << CtrTierName(ActiveCtrTier());
  std::cout << "active AES-CTR tier: " << CtrTierName(ActiveCtrTier())
            << " (" << CryptoDispatch() << ")\n";
}

// --- ChaCha20: RFC 7539 -------------------------------------------------

TEST(ChaCha20Test, Rfc7539KeystreamBlock) {
  // RFC 7539 Section 2.3.2 test vector.
  ChaCha20 chacha;
  ASSERT_TRUE(chacha
                  .Init(FromHex("000102030405060708090a0b0c0d0e0f"
                                "101112131415161718191a1b1c1d1e1f"),
                        FromHex("000000090000004a00000000"))
                  .ok());
  uint8_t block[64];
  chacha.KeystreamBlock(1, block);
  EXPECT_EQ(
      "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
      "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e",
      ToHex(std::string(reinterpret_cast<char*>(block), 64)));
}

TEST(ChaCha20Test, Rfc7539Encryption) {
  // RFC 7539 Section 2.4.2: stream starts at counter 1 = byte offset 64
  // in our offset addressing.
  std::unique_ptr<StreamCipher> cipher;
  ASSERT_TRUE(NewStreamCipher(CipherKind::kChaCha20,
                              FromHex("000102030405060708090a0b0c0d0e0f"
                                      "101112131415161718191a1b1c1d1e1f"),
                              FromHex("000000000000004a00000000"), &cipher)
                  .ok());
  std::string pt =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  cipher->CryptAt(64, pt.data(), pt.size());
  EXPECT_EQ(
      "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
      "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
      "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
      "5af90bbf74a35be6b40b8eedf2785e42874d",
      ToHex(pt));
}

TEST(ChaCha20Test, RejectsBadSizes) {
  ChaCha20 chacha;
  EXPECT_FALSE(chacha.Init(std::string(16, 'k'), std::string(12, 'n')).ok());
  EXPECT_FALSE(chacha.Init(std::string(32, 'k'), std::string(8, 'n')).ok());
}

// ChaCha20's RFC 7539 block counter is 32 bits wide, so a single
// (key, nonce) stream addresses at most 2^32 64-byte blocks = 256 GiB.
// Beyond that the counter would wrap and reuse keystream — a silent
// confidentiality break. CryptAt must refuse such ranges up front.
TEST(ChaCha20Test, CounterOverflowRejected) {
  std::unique_ptr<StreamCipher> cipher;
  ASSERT_TRUE(NewStreamCipher(CipherKind::kChaCha20, SecureRandomString(32),
                              SecureRandomString(12), &cipher)
                  .ok());
  constexpr uint64_t kLimit = (uint64_t{1} << 32) * ChaCha20::kBlockSize;
  char buf[256];

  // The last fully addressable block: [kLimit - 64, kLimit) is fine.
  memset(buf, 'a', sizeof(buf));
  EXPECT_TRUE(
      cipher->CryptAt(kLimit - ChaCha20::kBlockSize, buf, 64).ok());

  // One byte past the limit inside the range → the final block is
  // unaddressable, and the buffer must be left untouched.
  memset(buf, 'a', sizeof(buf));
  Status s = cipher->CryptAt(kLimit - ChaCha20::kBlockSize, buf, 65);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_EQ(std::string(sizeof(buf), 'a'), std::string(buf, sizeof(buf)));

  // A range starting wholly past the limit fails too.
  EXPECT_TRUE(cipher->CryptAt(kLimit, buf, 1).IsInvalidArgument());
  EXPECT_TRUE(
      cipher->CryptAt(kLimit + 12345, buf, sizeof(buf)).IsInvalidArgument());

  // An empty range is harmless anywhere.
  EXPECT_TRUE(cipher->CryptAt(kLimit, buf, 0).ok());

  // Round-trip just below the boundary still works (the regression
  // before the fix: the 64-bit block index was truncated to uint32_t,
  // so these offsets silently reused the keystream of offset 0).
  std::string data(128, 'd');
  const std::string original = data;
  const uint64_t offset = kLimit - 128;
  ASSERT_TRUE(cipher->CryptAt(offset, data.data(), data.size()).ok());
  EXPECT_NE(original, data);
  // Same bytes encrypted at offset 0 must differ: distinct keystream.
  std::string low(128, 'd');
  ASSERT_TRUE(cipher->CryptAt(0, low.data(), low.size()).ok());
  EXPECT_NE(low, data);
  ASSERT_TRUE(cipher->CryptAt(offset, data.data(), data.size()).ok());
  EXPECT_EQ(original, data);
}

// AES-CTR uses the full 128-bit counter: the same boundary is fine.
TEST(CtrStreamTest, AesAddressesPastChaChaLimit) {
  std::unique_ptr<StreamCipher> cipher;
  ASSERT_TRUE(NewStreamCipher(CipherKind::kAes128Ctr, SecureRandomString(16),
                              SecureRandomString(16), &cipher)
                  .ok());
  constexpr uint64_t kLimit = (uint64_t{1} << 32) * 64;
  std::string data(128, 'd');
  const std::string original = data;
  ASSERT_TRUE(cipher->CryptAt(kLimit, data.data(), data.size()).ok());
  EXPECT_NE(original, data);
  ASSERT_TRUE(cipher->CryptAt(kLimit, data.data(), data.size()).ok());
  EXPECT_EQ(original, data);
}

TEST(ChaCha20Test, OffsetAddressing) {
  std::unique_ptr<StreamCipher> cipher;
  ASSERT_TRUE(NewStreamCipher(CipherKind::kChaCha20, SecureRandomString(32),
                              SecureRandomString(12), &cipher)
                  .ok());
  std::string full(256, 'q');
  cipher->CryptAt(0, full.data(), full.size());
  std::string part(100, 'q');
  cipher->CryptAt(77, part.data(), part.size());
  EXPECT_EQ(full.substr(77, 100), part);
}

// --- Cipher factory ------------------------------------------------------

TEST(CipherFactoryTest, KeyAndNonceSizes) {
  EXPECT_EQ(16u, CipherKeySize(CipherKind::kAes128Ctr));
  EXPECT_EQ(32u, CipherKeySize(CipherKind::kAes256Ctr));
  EXPECT_EQ(32u, CipherKeySize(CipherKind::kChaCha20));
  EXPECT_EQ(16u, CipherNonceSize(CipherKind::kAes128Ctr));
  EXPECT_EQ(12u, CipherNonceSize(CipherKind::kChaCha20));
}

TEST(CipherFactoryTest, RejectsMismatchedKey) {
  std::unique_ptr<StreamCipher> cipher;
  EXPECT_FALSE(NewStreamCipher(CipherKind::kAes128Ctr, std::string(32, 'k'),
                               std::string(16, 'n'), &cipher)
                   .ok());
  EXPECT_FALSE(NewStreamCipher(CipherKind::kChaCha20, std::string(32, 'k'),
                               std::string(16, 'n'), &cipher)
                   .ok());
}

TEST(CipherFactoryTest, AllCiphersRoundTrip) {
  for (CipherKind kind : {CipherKind::kAes128Ctr, CipherKind::kAes256Ctr,
                          CipherKind::kChaCha20}) {
    std::unique_ptr<StreamCipher> cipher;
    ASSERT_TRUE(NewStreamCipher(kind,
                                SecureRandomString(CipherKeySize(kind)),
                                SecureRandomString(CipherNonceSize(kind)),
                                &cipher)
                    .ok())
        << CipherKindName(kind);
    std::string data(777, 'd');
    const std::string original = data;
    cipher->CryptAt(99, data.data(), data.size());
    EXPECT_NE(original, data);
    cipher->CryptAt(99, data.data(), data.size());
    EXPECT_EQ(original, data);
  }
}

// --- SHA-256: FIPS 180-4 -------------------------------------------------

TEST(Sha256Test, StandardVectors) {
  EXPECT_EQ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ToHex(Sha256::Digest("")));
  EXPECT_EQ("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ToHex(Sha256::Digest("abc")));
  EXPECT_EQ(
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
      ToHex(Sha256::Digest(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")));
}

TEST(Sha256Test, MillionAs) {
  Sha256 hasher;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; i++) {
    hasher.Update(chunk);
  }
  uint8_t digest[32];
  hasher.Final(digest);
  EXPECT_EQ("cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ToHex(std::string(reinterpret_cast<char*>(digest), 32)));
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Random rnd(11);
  std::string data;
  for (int i = 0; i < 1000; i++) {
    data.push_back(static_cast<char>(rnd.Uniform(256)));
  }
  Sha256 hasher;
  size_t pos = 0;
  while (pos < data.size()) {
    const size_t n = std::min<size_t>(1 + rnd.Uniform(97), data.size() - pos);
    hasher.Update(data.data() + pos, n);
    pos += n;
  }
  uint8_t digest[32];
  hasher.Final(digest);
  EXPECT_EQ(Sha256::Digest(data),
            std::string(reinterpret_cast<char*>(digest), 32));
}

// --- HMAC: RFC 4231 --------------------------------------------------------

TEST(HmacTest, Rfc4231Case1) {
  const std::string key(20, '\x0b');
  EXPECT_EQ("b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ToHex(HmacSha256(key, "Hi There")));
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ("5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ToHex(HmacSha256("Jefe", "what do ya want for nothing?")));
}

TEST(HmacTest, Rfc4231LongKey) {
  // Case 6: 131-byte key (hashed down internally).
  const std::string key(131, '\xaa');
  EXPECT_EQ("60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ToHex(HmacSha256(
                key, "Test Using Larger Than Block-Size Key - Hash Key First")));
}

TEST(HmacTest, ConstantTimeEqual) {
  EXPECT_TRUE(ConstantTimeEqual("same", "same"));
  EXPECT_FALSE(ConstantTimeEqual("same", "diff"));
  EXPECT_FALSE(ConstantTimeEqual("short", "longer"));
  EXPECT_TRUE(ConstantTimeEqual("", ""));
}

// --- HKDF: RFC 5869 ---------------------------------------------------------

TEST(HkdfTest, Rfc5869Case1) {
  const std::string ikm(22, '\x0b');
  const std::string salt = test::FromHex("000102030405060708090a0b0c");
  const std::string info = test::FromHex("f0f1f2f3f4f5f6f7f8f9");
  EXPECT_EQ(
      "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
      "34007208d5b887185865",
      ToHex(HkdfSha256(ikm, salt, info, 42)));
}

TEST(HkdfTest, NoSalt) {
  // RFC 5869 test case 3 (zero-length salt and info).
  const std::string ikm(22, '\x0b');
  EXPECT_EQ(
      "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
      "9d201395faa4b61a96c8",
      ToHex(HkdfSha256(ikm, "", "", 42)));
}

TEST(HkdfTest, DistinctInfoDistinctKeys) {
  const std::string a = HkdfSha256("passkey", "salt", "enc", 32);
  const std::string b = HkdfSha256("passkey", "salt", "mac", 32);
  EXPECT_NE(a, b);
  EXPECT_EQ(32u, a.size());
}

// --- Secure random -----------------------------------------------------------

TEST(SecureRandomTest, ProducesDistinctValues) {
  const std::string a = SecureRandomString(32);
  const std::string b = SecureRandomString(32);
  EXPECT_EQ(32u, a.size());
  EXPECT_NE(a, b);  // astronomically unlikely to collide
}

}  // namespace
}  // namespace crypto
}  // namespace shield
