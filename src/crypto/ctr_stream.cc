#include "crypto/ctr_stream.h"

#include <cstring>

#include "crypto/aes_ctr_kernels.h"

namespace shield {
namespace crypto {

Status AesCtrCipher::Init(CipherKind kind, const Slice& key,
                          const Slice& nonce) {
  if (kind != CipherKind::kAes128Ctr && kind != CipherKind::kAes256Ctr) {
    return Status::InvalidArgument("not an AES-CTR cipher kind");
  }
  if (nonce.size() != 16) {
    return Status::InvalidArgument("AES-CTR nonce must be 16 bytes");
  }
  const size_t want = CipherKeySize(kind);
  if (key.size() != want) {
    return Status::InvalidArgument("AES key size mismatch for cipher kind");
  }
  Status s = aes_.Init(key);
  if (!s.ok()) {
    return s;
  }
  memcpy(nonce_, nonce.data(), 16);
  kind_ = kind;
  return Status::OK();
}

Status AesCtrCipher::CryptAt(uint64_t offset, char* data, size_t n) const {
  CtrXorBytes(ActiveCtrTier(), aes_, nonce_, offset,
              reinterpret_cast<uint8_t*>(data), n);
  return Status::OK();
}

Status ChaCha20Cipher::Init(const Slice& key, const Slice& nonce) {
  return chacha_.Init(key, nonce);
}

Status ChaCha20Cipher::CryptAt(uint64_t offset, char* data, size_t n) const {
  if (n == 0) {
    return Status::OK();
  }
  // The RFC 7539 block counter is 32 bits. Reject any range whose last
  // block index does not fit, before touching the buffer: truncating
  // the index would silently restart the keystream at offset 256 GiB
  // and reuse key+nonce+counter tuples — a confidentiality break for
  // CTR mode.
  const uint64_t last_block = (offset + n - 1) / ChaCha20::kBlockSize;
  if (last_block > 0xffffffffull) {
    return Status::InvalidArgument(
        "ChaCha20 block counter overflow: offset range exceeds 2^32 "
        "64-byte blocks (256 GiB)");
  }
  uint8_t keystream[ChaCha20::kBlockSize];
  uint64_t block = offset / ChaCha20::kBlockSize;
  size_t in_block = offset % ChaCha20::kBlockSize;
  size_t i = 0;
  while (i < n) {
    chacha_.KeystreamBlock(static_cast<uint32_t>(block), keystream);
    const size_t take = std::min(ChaCha20::kBlockSize - in_block, n - i);
    for (size_t j = 0; j < take; j++) {
      data[i + j] ^= keystream[in_block + j];
    }
    i += take;
    in_block = 0;
    block++;
  }
  return Status::OK();
}

}  // namespace crypto
}  // namespace shield
