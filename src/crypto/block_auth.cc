#include "crypto/block_auth.h"

#include <cstring>

#include "crypto/hkdf.h"
#include "crypto/hmac.h"
#include "util/coding.h"
#include "util/perf_context.h"

namespace shield {
namespace crypto {

namespace {
constexpr char kMacKeyInfo[] = "shield.block-auth.v2";
constexpr size_t kMacKeySize = 32;
}  // namespace

std::string DeriveBlockMacKey(const Slice& file_key, const Slice& file_nonce) {
  return HkdfSha256(file_key, file_nonce,
                    Slice(kMacKeyInfo, sizeof(kMacKeyInfo) - 1), kMacKeySize);
}

BlockAuthenticator::BlockAuthenticator(std::string mac_key,
                                       std::unique_ptr<StreamCipher> cipher)
    : mac_key_(std::move(mac_key)), mac_(mac_key_), cipher_(std::move(cipher)) {}

BlockAuthenticator::~BlockAuthenticator() = default;

Sha256 BlockAuthenticator::BeginTag(uint64_t offset) const {
  Sha256 inner = mac_.Begin();
  char prefix[sizeof(uint64_t)];
  EncodeFixed64(prefix, offset);
  inner.Update(prefix, sizeof(prefix));
  return inner;
}

void BlockAuthenticator::FinishTag(Sha256* inner, char* tag) const {
  uint8_t mac[Sha256::kDigestSize];
  mac_.Finish(inner, mac);
  std::memcpy(tag, mac, kBlockAuthTagSize);
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

Status BlockAuthenticator::ComputeTag(uint64_t offset,
                                      std::initializer_list<Slice> parts,
                                      char* tag) const {
  PerfTimer timer(&GetPerfContext()->hmac_micros);
  Sha256 inner = BeginTag(offset);
  // Re-encrypt the plaintext at its logical offset to recover the
  // ciphertext image, one stack-sized chunk at a time; the offset
  // prefix stays plaintext. Streaming through a fixed chunk avoids
  // allocating a copy of the whole record per tag.
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
      inner.Update(chunk, take);
      cursor += take;
      p += take;
      n -= take;
    }
  }
  FinishTag(&inner, tag);
  RecordTick(stats_.load(std::memory_order_relaxed),
             Tickers::kCryptoHmacComputed, 1);
  PerfAdd(&PerfContext::hmac_compute_count, 1);
  return Status::OK();
}

bool BlockAuthenticator::VerifyTag(uint64_t offset, const Slice& data,
                                   const Slice& tag) const {
  char expected[kBlockAuthTagSize];
  return CountVerify(tag.size() == kBlockAuthTagSize &&
                     ComputeTag(offset, {data}, expected).ok() &&
                     ConstantTimeEqual(Slice(expected, kBlockAuthTagSize),
                                       tag));
}

void BlockAuthenticator::TagCiphertext(uint64_t offset,
                                       const Slice& ciphertext,
                                       char* tag) const {
  {
    PerfTimer timer(&GetPerfContext()->hmac_micros);
    Sha256 inner = BeginTag(offset);
    inner.Update(ciphertext);
    FinishTag(&inner, tag);
  }
  RecordTick(stats_.load(std::memory_order_relaxed),
             Tickers::kCryptoHmacComputed, 1);
  PerfAdd(&PerfContext::hmac_compute_count, 1);
}

bool BlockAuthenticator::VerifyCiphertext(uint64_t offset,
                                          const Slice& ciphertext,
                                          const Slice& tag) const {
  char expected[kBlockAuthTagSize];
  TagCiphertext(offset, ciphertext, expected);
  return CountVerify(tag.size() == kBlockAuthTagSize &&
                     ConstantTimeEqual(Slice(expected, kBlockAuthTagSize),
                                       tag));
}

std::unique_ptr<BlockAuthenticator> NewBlockAuthenticator(
    CipherKind kind, const Slice& file_key, const Slice& file_nonce) {
  std::unique_ptr<StreamCipher> cipher;
  if (!NewStreamCipher(kind, file_key, file_nonce, &cipher).ok()) {
    return nullptr;
  }
  return std::make_unique<BlockAuthenticator>(
      DeriveBlockMacKey(file_key, file_nonce), std::move(cipher));
}

}  // namespace crypto
}  // namespace shield
