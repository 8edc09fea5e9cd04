#include <algorithm>
#include <cstring>
#include <iostream>

#include "crypto/aes.h"
#include "crypto/aes_ctr_kernels.h"
#include "crypto/block_auth.h"
#include "crypto/chacha20.h"
#include "crypto/cipher.h"
#include "crypto/ghash.h"
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

std::string RandomBytes(Random* rnd, size_t n) {
  std::string s(n, '\0');
  for (char& c : s) {
    c = static_cast<char>(rnd->Next());
  }
  return s;
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

// --- GHASH kernel tiers: each against the SP 800-38D definition ---------

// X * Y in GF(2^128) by SP 800-38D Algorithm 1, bit by bit: bit 0 of a
// block is the most significant bit of its first byte.
std::string ReferenceGfMul(const std::string& x, const std::string& y) {
  std::string z(16, '\0');
  std::string v = y;
  for (int i = 0; i < 128; i++) {
    if ((static_cast<uint8_t>(x[i / 8]) >> (7 - i % 8)) & 1) {
      for (int j = 0; j < 16; j++) {
        z[j] ^= v[j];
      }
    }
    const bool lsb = v[15] & 1;
    for (int j = 15; j > 0; j--) {
      v[j] = static_cast<char>((static_cast<uint8_t>(v[j]) >> 1) |
                               (static_cast<uint8_t>(v[j - 1]) << 7));
    }
    v[0] = static_cast<char>(static_cast<uint8_t>(v[0]) >> 1);
    if (lsb) {
      v[0] ^= static_cast<char>(0xe1);  // R = 11100001 || 0^120
    }
  }
  return z;
}

// GHASH_H(C || zero pad || [0]64 || [bitlen C]64), SP 800-38D
// Algorithm 2 over the padded message.
std::string ReferenceGhash(const std::string& h, const std::string& c) {
  std::string message = c + std::string((16 - c.size() % 16) % 16, '\0') +
                        std::string(8, '\0');
  for (int b = 7; b >= 0; b--) {
    message.push_back(static_cast<char>((uint64_t{c.size()} * 8) >> (8 * b)));
  }
  std::string y(16, '\0');
  for (size_t i = 0; i < message.size(); i += 16) {
    y = ReferenceGfMul(Xor(y, message.substr(i, 16)), h);
  }
  return y;
}

class GhashTierTest : public ::testing::TestWithParam<GhashTier> {
 protected:
  void SetUp() override {
    if (!GhashTierSupported(GetParam())) {
      GTEST_SKIP() << "GHASH tier " << GhashTierName(GetParam())
                   << " is not supported on this CPU";
    }
  }

  // GHASH of `c` on the tier under test, fed to Update in `parts`.
  std::string Hash(const std::string& h, const std::string& c,
                   std::initializer_list<size_t> splits = {}) {
    const GhashKey key(reinterpret_cast<const uint8_t*>(h.data()));
    Ghash ghash(key, GetParam());
    size_t done = 0;
    for (size_t split : splits) {
      ghash.Update(c.data() + done, split - done);
      done = split;
    }
    ghash.Update(c.data() + done, c.size() - done);
    uint8_t out[16];
    ghash.Finish(out);
    return std::string(reinterpret_cast<char*>(out), sizeof(out));
  }
};

TEST_P(GhashTierTest, EveryLengthUpTo1024) {
  Random rnd(17);
  const std::string h = RandomBytes(&rnd, 16);
  const std::string c = RandomBytes(&rnd, 1024);
  for (size_t n = 0; n <= c.size(); n++) {
    ASSERT_EQ(ToHex(ReferenceGhash(h, c.substr(0, n))),
              ToHex(Hash(h, c.substr(0, n))))
        << GhashTierName(GetParam()) << " length " << n;
  }
}

TEST_P(GhashTierTest, RandomLengthsUpTo64KiB) {
  Random rnd(64);
  for (int round = 0; round < 12; round++) {
    const std::string h = RandomBytes(&rnd, 16);
    const std::string c = RandomBytes(&rnd, rnd.Uniform((64 << 10) + 1));
    ASSERT_EQ(ToHex(ReferenceGhash(h, c)), ToHex(Hash(h, c)))
        << GhashTierName(GetParam()) << " length " << c.size();
  }
}

TEST_P(GhashTierTest, EverySplitPointOfUpdate) {
  // Long enough that whole runs of 16 blocks sit on both sides of most
  // splits, so the carried partial block meets every kernel path.
  Random rnd(5);
  const std::string h = RandomBytes(&rnd, 16);
  const std::string c = RandomBytes(&rnd, 700);
  const std::string want = ToHex(ReferenceGhash(h, c));
  for (size_t split = 0; split <= c.size(); split++) {
    ASSERT_EQ(want, ToHex(Hash(h, c, {split})))
        << GhashTierName(GetParam()) << " split " << split;
  }
  for (size_t split = 0; split + 17 <= c.size(); split += 7) {
    ASSERT_EQ(want, ToHex(Hash(h, c, {split, split + 1, split + 17})))
        << GhashTierName(GetParam()) << " splits at " << split;
  }
}

TEST_P(GhashTierTest, MatchesEveryOtherTier) {
  Random rnd(99);
  for (int round = 0; round < 100; round++) {
    const std::string h = RandomBytes(&rnd, 16);
    const std::string c = RandomBytes(&rnd, rnd.Uniform(8192));
    const std::string mine = Hash(h, c);
    const GhashKey key(reinterpret_cast<const uint8_t*>(h.data()));
    for (GhashTier other :
         {GhashTier::kPortable, GhashTier::kPclmul, GhashTier::kVpclmul}) {
      if (!GhashTierSupported(other)) {
        continue;
      }
      Ghash ghash(key, other);
      ghash.Update(c.data(), c.size());
      uint8_t out[16];
      ghash.Finish(out);
      ASSERT_EQ(ToHex(std::string(reinterpret_cast<char*>(out), 16)),
                ToHex(mine))
          << GhashTierName(GetParam()) << " vs " << GhashTierName(other)
          << " length " << c.size();
    }
  }
}

TEST_P(GhashTierTest, GcmSpecVectors) {
  // The GCM specification's test cases 1 and 2 (K = 0^128, IV = 0^96),
  // built from this library's AES and GHASH: H = E_K(0^128), the tag
  // mask is E_K(J0) with J0 = IV || 0^31 || 1, and the one-block
  // ciphertext is P XOR E_K(inc32(J0)).
  Aes aes;
  ASSERT_TRUE(aes.Init(std::string(16, '\0')).ok());
  auto encrypt = [&](const std::string& in) {
    std::string out(16, '\0');
    aes.EncryptBlock(reinterpret_cast<const uint8_t*>(in.data()),
                     reinterpret_cast<uint8_t*>(out.data()));
    return out;
  };
  const std::string h = encrypt(std::string(16, '\0'));
  EXPECT_EQ("66e94bd4ef8a2c3b884cfa59ca342b2e", ToHex(h));
  const std::string mask = encrypt(FromHex("00000000000000000000000000000001"));
  EXPECT_EQ("58e2fccefa7e3061367f1d57a4e7455a", ToHex(Xor(Hash(h, ""), mask)));
  const std::string c =
      Xor(std::string(16, '\0'),
          encrypt(FromHex("00000000000000000000000000000002")));
  EXPECT_EQ("0388dace60b6a392f328c2b971b2fe78", ToHex(c));
  EXPECT_EQ("ab6e47d42cec13bdf53a67b21257bddf", ToHex(Xor(Hash(h, c), mask)));
}

INSTANTIATE_TEST_SUITE_P(Tiers, GhashTierTest,
                         ::testing::Values(GhashTier::kPortable,
                                           GhashTier::kPclmul,
                                           GhashTier::kVpclmul),
                         [](const ::testing::TestParamInfo<GhashTier>& info) {
                           return std::string(
                               info.param == GhashTier::kVpclmul ? "Vpclmul"
                               : info.param == GhashTier::kPclmul
                                   ? "Pclmul"
                                   : "Portable");
                         });

TEST(GhashTest, UpdateRunsTheActiveTier) {
  Random rnd(8);
  const std::string h = RandomBytes(&rnd, 16);
  const std::string c = RandomBytes(&rnd, 4096 + 5);
  const GhashKey key(reinterpret_cast<const uint8_t*>(h.data()));
  Ghash ghash(key);
  ghash.Update(c.data(), c.size());
  uint8_t active[16];
  ghash.Finish(active);
  EXPECT_EQ(ToHex(ReferenceGhash(h, c)),
            ToHex(std::string(reinterpret_cast<char*>(active), 16)))
      << GhashTierName(ActiveGhashTier());
  std::cout << "active GHASH tier: " << GhashTierName(ActiveGhashTier())
            << " (" << CryptoDispatch() << ")\n";
}

// --- Block authenticator: the format v3 tag ------------------------------

TEST(BlockAuthTest, GhashTagKnownAnswer) {
  // Pins one v3 tag, GHASH_H(C) XOR AES-128_Km(LE64(offset) || 0^64)
  // with H || Km = HKDF-SHA256(file key, salt = nonce,
  // "shield.block-auth.v3"), as computed by an independent
  // implementation of the construction.
  const std::string key = FromHex("000102030405060708090a0b0c0d0e0f");
  const std::string nonce = FromHex("101112131415161718191a1b1c1d1e1f");
  const std::string message =
      "SHIELD format v3: GHASH over the stored ciphertext, masked by AES.";
  auto auth = NewBlockAuthenticator(CipherKind::kAes128Ctr, key, nonce);
  ASSERT_NE(nullptr, auth);
  EXPECT_EQ(BlockMac::kGhash, auth->mac());
  char tag[kBlockAuthTagSize];
  auth->TagCiphertext(0x0123456789, message, tag);
  EXPECT_EQ("72713cb3ea5e3637d9e1377a5ad3ad0f",
            ToHex(std::string(tag, sizeof(tag))));
  EXPECT_TRUE(
      auth->VerifyCiphertext(0x0123456789, message, Slice(tag, sizeof(tag))));
  EXPECT_FALSE(
      auth->VerifyCiphertext(0x0123456788, message, Slice(tag, sizeof(tag))));
}

TEST(BlockAuthTest, PlaintextTagIsTheCiphertextTag) {
  // ComputeTag/VerifyTag (log records) re-encrypt the plaintext and MAC
  // the result: the same tag TagCiphertext gives the stored bytes, for
  // either MAC, across a 4 KiB re-encryption chunk and split parts.
  Random rnd(3);
  const std::string key = RandomBytes(&rnd, 16);
  const std::string nonce = RandomBytes(&rnd, 16);
  std::unique_ptr<StreamCipher> cipher;
  ASSERT_TRUE(
      NewStreamCipher(CipherKind::kAes128Ctr, key, nonce, &cipher).ok());
  for (BlockMac mac : {BlockMac::kHmacSha256, BlockMac::kGhash}) {
    auto auth = NewBlockAuthenticator(mac, CipherKind::kAes128Ctr, key, nonce);
    ASSERT_NE(nullptr, auth);
    for (size_t n : {0, 1, 15, 16, 17, 4095, 4096, 4097, 9000}) {
      const uint64_t offset = rnd.Uniform(1 << 20);
      const std::string plain = RandomBytes(&rnd, n);
      std::string stored = plain;
      ASSERT_TRUE(cipher->CryptAt(offset, stored.data(), n).ok());
      char want[kBlockAuthTagSize];
      auth->TagCiphertext(offset, stored, want);
      char got[kBlockAuthTagSize];
      const size_t cut = n / 3;
      ASSERT_TRUE(auth->ComputeTag(offset,
                                   {Slice(plain.data(), cut),
                                    Slice(plain.data() + cut, n - cut)},
                                   got)
                      .ok());
      EXPECT_EQ(ToHex(std::string(want, sizeof(want))),
                ToHex(std::string(got, sizeof(got))))
          << static_cast<int>(mac) << " length " << n;
      EXPECT_TRUE(auth->VerifyTag(offset, plain, Slice(got, sizeof(got))));
    }
  }
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

// Digests of the messages m_L, L = 0..130, with byte i of m_L equal to
// (31 * i + 7) mod 256, precomputed with Python's hashlib. The lengths
// put every possible number of bytes ahead of the padding, so the
// padding stays in one block (up to 55) or spills into a second.
constexpr const char* kSha256ByLength[] = {
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",  // 0
    "ca358758f6d27e6cf45272937977a748fd88391db679ceda7dc7bf1f005ee879",  // 1
    "140d811b81973993df99b8b1742b383ab83f6f52bf7af850812e7bba02ff11da",  // 2
    "647674a296197442f518bcca323ec605dd8d098b2d4f22ee1fdcdd2bb753a189",  // 3
    "b999f79c534a332dfb989ab78cda3d1967c16133ca1d668cf62737f8d768962f",  // 4
    "a7fed79902b79407088f9cc6584f7506f82d8be43dc419ff5ab1969dfdd245f5",  // 5
    "35a9838ae94607ca89c07791a9682ba4a7a4ac9a30f262439c067eeb64ae2ad1",  // 6
    "13ce3403bf0ec804d44556f2fce6a75e4117680fb8791e7bc631bb7ef0d13550",  // 7
    "4fb900ca3f5832fcc475b79bf07217bf0edfe9d39ea10f5cf624246ff68b47de",  // 8
    "1a4d14ade81567725e079c6fc24507fefef27d92c7ac4086d9f74b89ef2f0aa4",  // 9
    "49e62c55d4996b5c5092f67f3ca52e954e37310cd3e07a25be69d3f1b8d2fd98",  // 10
    "b1ea037a5a2028c5faa5eb98708424f1ac7896731528711341f236d8c19cabd1",  // 11
    "d255aafa782c787b223925cbe2cc9d234ee70cea08b951f0b0c0b3f8b82e0916",  // 12
    "dc898e8ef5663ef7a22697ee877b3c4d62ac6f2a60d87187432172e46ece2cc4",  // 13
    "4327538c6f8ae469aa369a03eddf44f38c784d258bbccb6e1a571adaa0ad9d9a",  // 14
    "45d2755c5c700f214e3422972d36e5de4416645f498926ac719fae09605c09f4",  // 15
    "f087c7ff57988205ab8885ecbfca8a77c96e91b213bdaba91143fbcd62997713",  // 16
    "b6ff0191041cc77b1ef514adaed53fdd247fd43221a629d3d7c91d14e21038a3",  // 17
    "df1d155105ed3fd5a96ac0cc8a03757b8b129af594f42415eb239a4b4bc75767",  // 18
    "b8c31728a52aa1d6dc0c74c313c5920752a3e4b6aee9af80355626e46425d870",  // 19
    "3d9862867e0f08fe66a4a8060f470d25cfb1dbf7705249bc343df0ae24aff0c0",  // 20
    "fbb90f5e6853482c6429452998cfd075da3a022b888fe1656fa06db254a5febd",  // 21
    "8f98945d76a89645faec1fa8423320e1c667fe187010df451ec31aef07ac92bc",  // 22
    "e37502a8c138a926769fa31e1f8897d8c8ce9869acbc47a08228c10733bd4a7f",  // 23
    "534ed31261a5fa7479dfdf11a17fd67c54f97f709c8d0cbc7d6cede4250848ab",  // 24
    "62394da95c50caab10618ac4b91e5855e5d6070fdbc4f3fcf236ad6131552a01",  // 25
    "476f63083003ae90ee93820b6424e7fe7225295d1df672f1980cda7611c7525d",  // 26
    "c254534705c4b62acfdb7559129a2fe1f4a6357f29adb2ce0272a5850ec18779",  // 27
    "44e10749b735119d2bb8a035ab9e80feaf2d70ff0cb4ff81009a7164ea7ef158",  // 28
    "635d558662aa3a0a816409012f1ebddd3e97e5b47b104ce3cf2fa51eac6ba03c",  // 29
    "96c7f171376cadae5507a4e86f209ecae9803c573b4c12ce092cd3a406753ee0",  // 30
    "5e5f9fa56d6337115e86a2508477e87c7d5296d0b0743ecfde2d0caeed2db37d",  // 31
    "8e889f10b21cdd1b3ad72f740317a827d76e1b5b3f721e33c566f06d1deff8ea",  // 32
    "93462e85c42aa037bc727a8c283497594aa5c844f0e5bccaa52fec34dee9f44e",  // 33
    "7eacf4e83a0c0f6a275d8638bb4139f57032be7f92faf18061ab123956e839f7",  // 34
    "694e74e19ea404ce1fa456cd86a21805c1d5e3b9ddddac82049e1930f7916207",  // 35
    "1b0e5a6e99cf2857502ea95e3c9fd8623a7b97c736d2a3ea51007cc8f4e4459d",  // 36
    "1de539554304369f30c38f449ff784bd5631da1c116826ad6bf9eb941b4def8a",  // 37
    "919d8c7274eabf2f23564d1ffaff05432563380a336ad020c475ede6f8e758db",  // 38
    "4673c1ba5e3149dc9378b6991aad7fc5b9eea309128de482e41a4a26b1014253",  // 39
    "0069ba1486c68c9d9b6696145417e15d575490572a589cb90295d1d646ab168d",  // 40
    "713465c48d1af54b1ec09afeb0ff1d2c1d903e2209e6456cb1bb406feadbdadd",  // 41
    "d59b89452cfe95dea27e9ceb867031c0d1b009b7a34f7f9579033de9fb1b7025",  // 42
    "cb2918c166fc0ce29240404ded678790ec1ed1081a44451b12db86af947409dd",  // 43
    "c6c2394c8738d718c9267fa44a604af1730c3eee5b49206eb0b3afe51fb9094f",  // 44
    "70e67c7bb6676134b17de565343d978e42a4d9c451081b52dd7305d39db8998f",  // 45
    "efe965a979e8ea0af2bc644f948b5d9ff44aa32c9ef16696e7c39b43bd34eccc",  // 46
    "0b87b79f91e5d8b08a2b987530d2661a815cb36051d1d9de643d9b77f8b0000d",  // 47
    "dfdea792658d9e37734453208d20a69207f91e45b38ba9fb35d6a855cbcaa859",  // 48
    "133936d4a4bdf0845e1a7f6eec060132a2b4f9ca028e891cc9d491f588cdf0a5",  // 49
    "9482749d4936c40304ce3449d92fd738a8bb2919dcfb63ef738a19e3a3b01d04",  // 50
    "ef91e8e4033ca1960bfd6b772d4992f661954e6285ec81c8abe8d89e2fc8a04a",  // 51
    "56d20b3f0c9a4610c8f555349d5a1acbd77f4ae92e3e1052562e1df97c1831bb",  // 52
    "6018db3f8d14f3b05f0ca750fd780750808dd09a23128cdd80a81251b2c5d519",  // 53
    "c802146d5788fb540fbf29d8ff485730ad10f4f13b78961c032e78691b582647",  // 54
    "8aa994584139d128848eeebc4e815639ba5ab6e6e39574195a63ac4f14f7c43b",  // 55
    "ad574708f75c044c9b85de64cb568ee7711ff4f36448c6242f053ba8f6cc2b63",  // 56
    "5b46e502092be01b1100193e089fdda95638c12e19a1d24f308eb2c3d3ae849d",  // 57
    "b077ebeb8236a3aadb7f9f3fac9bf78df7e2ae0e8ca49d19f36914c66c2421ea",  // 58
    "52c10381fbaf5149f1c9a1df701baea05f74df32b80fa073943df58b61942ca2",  // 59
    "0cd53cd7093df4c301a67b8072a805e69508d9336a4a237f760dd989994fe7a2",  // 60
    "e8e5a95dd7d96e970954472cc2ed73edca2c48c710048b858c31996ce769a382",  // 61
    "8a670c7c037c3947aa18d2a2a717c1814a210f51ea22138c5bc43d5e09f63db7",  // 62
    "280ed3e8ff1df845b2e7dfe6ac6cee817bef20e783cc65abc41b818b4d2fe076",  // 63
    "c6ab9724ade5b6a7a1edfffb12f3aa9181351355af8fd08c919952ad211339dd",  // 64
    "788367c73c7ddf4c53f65e68cc0d943e6227ab55b0e78ba63ace822b1c6301c0",  // 65
    "c24f29299c40d868cd7b1f5de6af00827b1a8454ed22256f8fad0a23651d8cb3",  // 66
    "978d3882da4335d999565e8f6a1ad3c67d05d13200305ca88b71c15a6e3e85c8",  // 67
    "73205e7093c6b53b335bcedba2eeea7ae1f9d2fa189709ff17c2c70b11c758b3",  // 68
    "0bc9554f0d0db189aedc00e391072ca3f9727d8b00b83fb701f0569066c01ffa",  // 69
    "d9c27945a73a9005b52f13594479b695ed1c4e96f764e62a19ea2e32af9b44e5",  // 70
    "b4d079c3da387729008e096f129032366ba3b1b13f07c57352afd083824d1de9",  // 71
    "9c6db2e3af616bebc9de6e90f9d1be29621157db8a0718aa2fe36d84fc451f87",  // 72
    "5289296269eaf1e62e77cff45f520309cb0a5d5ac7290e09be5714cb3602ffb2",  // 73
    "7bf9fa01704b1fc3a5aedb1cc286a29f2c1f380a6ef5c50f6e208e8e86b34b01",  // 74
    "56b127f7acfa1c21854e9f44179d88588f68be841c0dbaba735f65f94ba42207",  // 75
    "c30425ba5122022f0cb5f2b85fddfff45900e6e7f3bc4a064fa5bb771a3fc288",  // 76
    "2b5636493c358e72d577ce8afbeb79e6757c188a6fd31d029a2821e85542833b",  // 77
    "677f8cc982301dc75b9b988799379e69b7b676b117d886466692081cb33c0bc3",  // 78
    "9f419c1f641a930b61e7861f11c3dd716bc05991a072efb8b5bbef7436d19aa2",  // 79
    "b26499a826b8b46533c2d582cd456c0c3ef988e52c4f2af931b44baaf18de26c",  // 80
    "2cbbfa85a5052ffdf904ef426414e11201bf118874ace71e173822b1f037d38b",  // 81
    "5ee37ccff83bb4c9590fbb0ed39bbf48cabcbc5af621793c3bde3140c24e805d",  // 82
    "d148a9b0b08ada1301de8deaf952ed6d9ef8722928d57d2dc6104ed4eb3a1a47",  // 83
    "a73b761738961969a2dd7b875bdd38fcd0b1abea466bda5872f5bf1de8511d84",  // 84
    "210e074eadded47ed7cb727d9748bd14cafda623bc6947cc1e6302688da64d22",  // 85
    "a305fec92849b9c0765508d5010aff39ff3126e4ff4e10072199d8c02ce8defe",  // 86
    "ad5d8afb4c5cebec996abb96f7e9a1341c4b30db6d105dbb081d98454cfc7a6b",  // 87
    "efec7be79a6481cece434f8b463bc7800d10b8208c93b4fcc8c71f7f6701f71e",  // 88
    "61208160d58e9662571cda06cb9714095edf50393caee99cb75c5a26f488e19b",  // 89
    "2510bce9f3bed86186f4a98def953dad75bb13a89356426603a22f81c9ea5768",  // 90
    "25430c9c296d09c08f26d7efd74da726e8b705275e7a212a1fbf9d611c54c84f",  // 91
    "087ae647d38e728654b8d64960b8b59f31e46f98186f36e2e6a87e9ff6a6418d",  // 92
    "faced2ae498e7cce764c5f3c6a59610ec089b9d8ab67a2f81c1fca0b4403934e",  // 93
    "9d362998ae54695e7f832df638a353822f1283a49118f908703fdb0803509424",  // 94
    "d8c1f906be7970fa1b45890c5b45f94564ce77dd02bdb8cf0b869ca0afaa89e5",  // 95
    "d6c2773235f3785b4cf0f2b11861675cfd7f2a033ae69df9009cce1a787188b7",  // 96
    "15218c39030268e3258c9d4a8d3f284885a3784d0a0eb64d0e3ff99630457198",  // 97
    "c0744ab5ad80d3d6b460729c98230900a31d8c458ea5b462c79ed8a255e230a4",  // 98
    "717c23feab1f6a3a42269fc90b88799a1634028b67423f14b8602498bb952546",  // 99
    "c22e490daa445fb2fba44278c022df135310fd278cabca4ad7919eddcccd1dce",  // 100
    "e074ec684ae30cd662349906698baedc326789d9048ddd3dc1d43c6fcd5ab215",  // 101
    "52b5aad34021e9763bd2f719103edc8792bbf1250064eaaeab3b618cb31f1605",  // 102
    "e571c2a147c1eceec5dd8b6aeb1889aae50ea41b623d3026abc665acff5201f9",  // 103
    "23741790d156ecb2e1f43040faf528c96695945ff60b140c017b18137ca88888",  // 104
    "b9eeabc1150408b0798f41474ca2631a1e1d21d596db4420f3e23a2e05b3d9e3",  // 105
    "5d996879165390ac46419c0d499872248af518d37f368517d601e9404dd4e543",  // 106
    "49b9f17a7f3c6d94ae8b82ae9f94f367750c2c96b5b3e512c0c70cc818caf741",  // 107
    "189fbfd57dd81e95f3328c00adf69cc226c6c6081b21dc12f60ee1505d8d966c",  // 108
    "28ff771381251bcd442093a809a61095f53d6b83b7df9e59d142570bfc2a2835",  // 109
    "fe47c5a8d830476f3857f334a8a6d25f51270b9ab6f5d6dfaf5cb87b57c7aa91",  // 110
    "dd1413178fb627f9abbc041ffe39c44aa7aaa0e2e6d2ca5c4528ac7073a2da45",  // 111
    "a65c92dac124062d0ab951a42773cb04fc98d1d4bf8897b176f8cff3509d379e",  // 112
    "6f184b6619128e865ecb2b3ea96c03d461f0664d87689480988dbee53a449161",  // 113
    "81a8edf98294aab58cd1624aa4eca96e7f12de7de41005d08a5dc160a3c66ed6",  // 114
    "acb4c84cb17d887b3411a138a357b52be28f487418f65a0c5dc3b11a1337ec6f",  // 115
    "0d6a9d84e67cb35fb772c46763b46b72e229b5f76663c5ed53343424775ad100",  // 116
    "af7b162f08dae5e87b4008e21010c646a576e3372d6814edd32f9d01949deca9",  // 117
    "e96230c1485dd2e36f02f30932b0e2acf725283090cfdd8c58fce6bf523edd26",  // 118
    "3d610547d68216dedf7435a4fb6260353911f6b3fd3f18805ddb8be285d726fe",  // 119
    "1f80156a804cb7862ad113e8200e9d74499723e7c7854d5f48776d3148e09656",  // 120
    "614571410beab3df68d50132a341d338575653da8374c630441bbe380b9b3136",  // 121
    "d728ad2179214f0cb2b01d264d8b7fb26893e310599d5d419c7a9f92ca293664",  // 122
    "893ef3f88cf4382f5d660f694b6b4213960adffa842aca38988fcbc7ea5b58dc",  // 123
    "2a4c07c863a78da189481963834179ff348b51630ccf098b923d871ff748403d",  // 124
    "5ef8fed0986749855f87f2125e13fe813d9c1428ef0ef36bf49395b53d14c85a",  // 125
    "5aa67f561ca036a72db939b4d4b14975505f08fc1564036822a1639a5b09dfb8",  // 126
    "192409cd280e14b743642ad1343fbd3e82d9305de72c078117745a679210cc3d",  // 127
    "cc548ca2dec1f6fe4f58b2e27aa9c7521607df1130d140b55a4dad0665302356",  // 128
    "81e89a7b2911aaa7795f9e3d4910cb47d6cd2b00d83b8399481527261a1a7519",  // 129
    "1c7c3b5eee94d4fa8b41754b89153e50491838d0d3e49b0273d6f12cae12e387",  // 130
};

std::string Sha256Message(size_t length) {
  std::string m(length, '\0');
  for (size_t i = 0; i < length; i++) {
    m[i] = static_cast<char>((31 * i + 7) & 0xff);
  }
  return m;
}

TEST(Sha256Test, EveryLengthUpToTwoBlocksMatchesHashlib) {
  ASSERT_EQ(131u, sizeof(kSha256ByLength) / sizeof(kSha256ByLength[0]));
  for (size_t length = 0; length <= 130; length++) {
    const std::string m = Sha256Message(length);
    EXPECT_EQ(kSha256ByLength[length], ToHex(Sha256::Digest(m)))
        << "length " << length;
    // Fed a byte at a time, Final starts from every buffer fill.
    Sha256 hasher;
    for (char c : m) {
      hasher.Update(&c, 1);
    }
    uint8_t digest[Sha256::kDigestSize];
    hasher.Final(digest);
    EXPECT_EQ(kSha256ByLength[length],
              ToHex(std::string(reinterpret_cast<char*>(digest),
                                sizeof(digest))))
        << "length " << length << ", bytewise";
  }
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
