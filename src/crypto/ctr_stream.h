#ifndef SHIELD_CRYPTO_CTR_STREAM_H_
#define SHIELD_CRYPTO_CTR_STREAM_H_

#include <cstdint>
#include <memory>

#include "crypto/aes.h"
#include "crypto/chacha20.h"
#include "crypto/cipher.h"
#include "util/slice.h"
#include "util/status.h"

namespace shield {
namespace crypto {

/// AES in CTR mode (NIST SP 800-38A). The 16-byte nonce is the initial
/// counter block; byte `offset` of the stream uses counter block
/// nonce + offset/16 (128-bit big-endian addition).
class AesCtrCipher : public StreamCipher {
 public:
  Status Init(CipherKind kind, const Slice& key, const Slice& nonce);

  Status CryptAt(uint64_t offset, char* data, size_t n) const override;
  CipherKind kind() const override { return kind_; }

 private:
  Aes aes_;
  uint8_t nonce_[16] = {};
  CipherKind kind_ = CipherKind::kAes128Ctr;
};

/// ChaCha20 as an offset-addressable stream: byte `offset` falls in
/// 64-byte keystream block offset/64, with the RFC 7539 block counter.
/// The counter is 32 bits, so the stream is only addressable below
/// 2^32 blocks (256 GiB); CryptAt rejects ranges beyond that rather
/// than wrapping and reusing keystream.
class ChaCha20Cipher : public StreamCipher {
 public:
  Status Init(const Slice& key, const Slice& nonce);

  Status CryptAt(uint64_t offset, char* data, size_t n) const override;
  CipherKind kind() const override { return CipherKind::kChaCha20; }

 private:
  ChaCha20 chacha_;
};

}  // namespace crypto
}  // namespace shield

#endif  // SHIELD_CRYPTO_CTR_STREAM_H_
