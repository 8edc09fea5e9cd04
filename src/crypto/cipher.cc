#include "crypto/cipher.h"

#include "crypto/aes_ctr_kernels.h"
#include "crypto/ctr_stream.h"
#include "crypto/sha256.h"
#include "util/crc32c.h"

namespace shield {
namespace crypto {

const char* CipherKindName(CipherKind kind) {
  switch (kind) {
    case CipherKind::kAes128Ctr:
      return "AES-128-CTR";
    case CipherKind::kAes256Ctr:
      return "AES-256-CTR";
    case CipherKind::kChaCha20:
      return "ChaCha20";
  }
  return "unknown";
}

std::string CryptoDispatch() {
  return std::string("aes-ctr=") + CtrTierName(ActiveCtrTier()) +
         " sha256=" + Sha256::Implementation() +
         " crc32c=" + crc32c::Implementation();
}

size_t CipherKeySize(CipherKind kind) {
  switch (kind) {
    case CipherKind::kAes128Ctr:
      return 16;
    case CipherKind::kAes256Ctr:
      return 32;
    case CipherKind::kChaCha20:
      return 32;
  }
  return 0;
}

size_t CipherNonceSize(CipherKind kind) {
  switch (kind) {
    case CipherKind::kAes128Ctr:
    case CipherKind::kAes256Ctr:
      return 16;
    case CipherKind::kChaCha20:
      return 12;
  }
  return 0;
}

Status NewStreamCipher(CipherKind kind, const Slice& key, const Slice& nonce,
                       std::unique_ptr<StreamCipher>* out) {
  switch (kind) {
    case CipherKind::kAes128Ctr:
    case CipherKind::kAes256Ctr: {
      auto cipher = std::make_unique<AesCtrCipher>();
      Status s = cipher->Init(kind, key, nonce);
      if (!s.ok()) {
        return s;
      }
      *out = std::move(cipher);
      return Status::OK();
    }
    case CipherKind::kChaCha20: {
      auto cipher = std::make_unique<ChaCha20Cipher>();
      Status s = cipher->Init(key, nonce);
      if (!s.ok()) {
        return s;
      }
      *out = std::move(cipher);
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown cipher kind");
}

}  // namespace crypto
}  // namespace shield
