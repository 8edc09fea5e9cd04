#include "crypto/block_auth.h"

#include <cassert>
#include <cstring>

#include "crypto/hkdf.h"
#include "util/coding.h"
#include "util/perf_context.h"

namespace shield {
namespace crypto {

namespace {

// HKDF info strings: one per format, so the v2 and v3 keys of the same
// file key and nonce are independent.
constexpr char kHmacKeyInfo[] = "shield.block-auth.v2";
constexpr char kGhashKeyInfo[] = "shield.block-auth.v3";
constexpr size_t kKeyMaterialSize = 32;  // v2 mac_key; v3 H || Km

std::string DeriveKeyMaterial(BlockMac mac, const Slice& file_key,
                              const Slice& file_nonce) {
  const Slice info = mac == BlockMac::kGhash
                         ? Slice(kGhashKeyInfo, sizeof(kGhashKeyInfo) - 1)
                         : Slice(kHmacKeyInfo, sizeof(kHmacKeyInfo) - 1);
  return HkdfSha256(file_key, file_nonce, info, kKeyMaterialSize);
}

}  // namespace

// One tag being computed: the bytes of C streamed so far.
class BlockAuthenticator::TagStream {
 public:
  TagStream(const BlockAuthenticator& auth, uint64_t offset)
      : auth_(auth), offset_(offset) {
    if (auth_.mac_ == BlockMac::kGhash) {
      ghash_.emplace(*auth_.hash_key_);
    } else {
      inner_.emplace(auth_.hmac_->Begin());
      char prefix[sizeof(uint64_t)];
      EncodeFixed64(prefix, offset_);
      inner_->Update(prefix, sizeof(prefix));
    }
  }

  void Update(const char* data, size_t n) {
    if (ghash_) {
      ghash_->Update(data, n);
    } else {
      inner_->Update(data, n);
    }
  }

  void Finish(char* tag) {
    if (ghash_) {
      uint8_t out[kBlockAuthTagSize];
      ghash_->Finish(out);
      // XOR in AES_Km(LE64(offset) || 0^64): the CTR keystream block of
      // that counter block at index 0.
      uint8_t mask_input[Aes::kBlockSize] = {};
      EncodeFixed64(reinterpret_cast<char*>(mask_input), offset_);
      auth_.mask_.CtrXor(mask_input, 0, out, 1);
      memcpy(tag, out, kBlockAuthTagSize);
    } else {
      uint8_t mac[Sha256::kDigestSize];
      auth_.hmac_->Finish(&*inner_, mac);
      memcpy(tag, mac, kBlockAuthTagSize);
    }
  }

 private:
  const BlockAuthenticator& auth_;
  const uint64_t offset_;
  std::optional<Ghash> ghash_;   // v3
  std::optional<Sha256> inner_;  // v2
};

BlockAuthenticator::BlockAuthenticator(BlockMac mac, const Slice& file_key,
                                       const Slice& file_nonce,
                                       std::unique_ptr<StreamCipher> cipher)
    : mac_(mac), cipher_(std::move(cipher)) {
  assert(mac_ != BlockMac::kNone);
  const std::string keys = DeriveKeyMaterial(mac_, file_key, file_nonce);
  if (mac_ == BlockMac::kGhash) {
    hash_key_.emplace(reinterpret_cast<const uint8_t*>(keys.data()));
    Status s = mask_.Init(Slice(keys.data() + 16, 16));
    assert(s.ok());
    (void)s;
  } else {
    hmac_.emplace(keys);
  }
}

BlockAuthenticator::~BlockAuthenticator() = default;

void BlockAuthenticator::CountCompute() const {
  RecordTick(stats_.load(std::memory_order_relaxed),
             Tickers::kCryptoHmacComputed, 1);
  PerfAdd(&PerfContext::hmac_compute_count, 1);
}

bool BlockAuthenticator::CountVerify(bool ok) const {
  Statistics* stats = stats_.load(std::memory_order_relaxed);
  RecordTick(stats, Tickers::kCryptoHmacVerified, 1);
  PerfAdd(&PerfContext::hmac_verify_count, 1);
  if (!ok) {
    RecordTick(stats, Tickers::kCryptoHmacFailures, 1);
  }
  return ok;
}

Status BlockAuthenticator::TagPlaintext(uint64_t offset,
                                        std::initializer_list<Slice> parts,
                                        char* tag) const {
  PerfTimer timer(&GetPerfContext()->hmac_micros);
  TagStream stream(*this, offset);
  // Re-encrypt the plaintext at its logical offset to recover the
  // ciphertext image, one stack-sized chunk at a time. Streaming
  // through a fixed chunk avoids allocating a copy of the whole record
  // per tag.
  uint64_t cursor = offset;
  char chunk[4096];
  for (const Slice& part : parts) {
    const char* p = part.data();
    size_t n = part.size();
    while (n > 0) {
      const size_t take = n < sizeof(chunk) ? n : sizeof(chunk);
      std::memcpy(chunk, p, take);
      Status s = cipher_->CryptAt(cursor, chunk, take);
      if (!s.ok()) {
        return s;
      }
      stream.Update(chunk, take);
      cursor += take;
      p += take;
      n -= take;
    }
  }
  stream.Finish(tag);
  return Status::OK();
}

void BlockAuthenticator::MacCiphertext(uint64_t offset,
                                       const Slice& ciphertext,
                                       char* tag) const {
  PerfTimer timer(&GetPerfContext()->hmac_micros);
  TagStream stream(*this, offset);
  stream.Update(ciphertext.data(), ciphertext.size());
  stream.Finish(tag);
}

Status BlockAuthenticator::ComputeTag(uint64_t offset,
                                      std::initializer_list<Slice> parts,
                                      char* tag) const {
  Status s = TagPlaintext(offset, parts, tag);
  if (s.ok()) {
    CountCompute();
  }
  return s;
}

bool BlockAuthenticator::VerifyTag(uint64_t offset, const Slice& data,
                                   const Slice& tag) const {
  char expected[kBlockAuthTagSize];
  return CountVerify(tag.size() == kBlockAuthTagSize &&
                     TagPlaintext(offset, {data}, expected).ok() &&
                     ConstantTimeEqual(Slice(expected, kBlockAuthTagSize),
                                       tag));
}

void BlockAuthenticator::TagCiphertext(uint64_t offset,
                                       const Slice& ciphertext,
                                       char* tag) const {
  MacCiphertext(offset, ciphertext, tag);
  CountCompute();
}

bool BlockAuthenticator::VerifyCiphertext(uint64_t offset,
                                          const Slice& ciphertext,
                                          const Slice& tag) const {
  char expected[kBlockAuthTagSize];
  MacCiphertext(offset, ciphertext, expected);
  return CountVerify(tag.size() == kBlockAuthTagSize &&
                     ConstantTimeEqual(Slice(expected, kBlockAuthTagSize),
                                       tag));
}

std::unique_ptr<BlockAuthenticator> NewBlockAuthenticator(
    BlockMac mac, CipherKind kind, const Slice& file_key,
    const Slice& file_nonce) {
  std::unique_ptr<StreamCipher> cipher;
  if (mac == BlockMac::kNone ||
      !NewStreamCipher(kind, file_key, file_nonce, &cipher).ok()) {
    return nullptr;
  }
  return std::make_unique<BlockAuthenticator>(mac, file_key, file_nonce,
                                              std::move(cipher));
}

std::unique_ptr<BlockAuthenticator> NewBlockAuthenticator(
    CipherKind kind, const Slice& file_key, const Slice& file_nonce) {
  return NewBlockAuthenticator(BlockMac::kGhash, kind, file_key, file_nonce);
}

}  // namespace crypto
}  // namespace shield
