#ifndef SHIELD_CRYPTO_AES_H_
#define SHIELD_CRYPTO_AES_H_

#include <cstddef>
#include <cstdint>

#include "util/slice.h"
#include "util/status.h"

namespace shield {
namespace crypto {

/// AES block cipher (FIPS-197), encryption direction only. The library
/// uses AES exclusively in CTR mode, which never needs the inverse
/// cipher. Supports 128/192/256-bit keys.
///
/// Single blocks go through a portable 32-bit T-table design. Bulk CTR
/// (CtrXor) runs a fused keystream-and-XOR kernel on the widest tier
/// the CPU has: VAES-512, AES-NI (the paper's OpenSSL baseline), or the
/// T-table loop. All tiers produce identical ciphertext
/// (crypto/aes_ctr_kernels.h).
class Aes {
 public:
  static constexpr size_t kBlockSize = 16;

  Aes() = default;

  /// Expands the key schedule. `key` must be 16, 24 or 32 bytes.
  Status Init(const Slice& key);

  /// Encrypts exactly one 16-byte block: out = E_k(in). `in` and `out`
  /// may alias.
  void EncryptBlock(const uint8_t in[kBlockSize],
                    uint8_t out[kBlockSize]) const;

  /// CTR keystream XOR over whole blocks, in place: for i < nblocks,
  /// data[16i .. 16i+15] ^= E_k(nonce + first_block + i), with 128-bit
  /// big-endian counter addition.
  void CtrXor(const uint8_t nonce[kBlockSize], uint64_t first_block,
              uint8_t* data, size_t nblocks) const;

  bool initialized() const { return rounds_ != 0; }
  int rounds() const { return rounds_; }
  /// The key schedule as rounds()+1 16-byte round keys, 16-byte aligned,
  /// in the byte order AESENC takes. For the CTR kernels.
  const uint8_t* round_key_bytes() const { return round_key_bytes_; }

 private:
  uint32_t round_keys_[60] = {};  // up to 14 rounds + 1, 4 words each
  // The same schedule as round-key byte strings; filled
  // unconditionally by Init so any kernel tier can run.
  alignas(16) uint8_t round_key_bytes_[15 * 16] = {};
  int rounds_ = 0;
};

}  // namespace crypto
}  // namespace shield

#endif  // SHIELD_CRYPTO_AES_H_
