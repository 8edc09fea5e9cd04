#ifndef SHIELD_CRYPTO_AES_CTR_KERNELS_H_
#define SHIELD_CRYPTO_AES_CTR_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "crypto/aes.h"

namespace shield {
namespace crypto {

/// Internal to the crypto library: the AES-CTR kernel tiers behind
/// Aes::CtrXor and AesCtrCipher::CryptAt. Every tier produces the same
/// bytes. The widest tier the CPU supports is chosen once per process;
/// tests and benchmarks call a tier by name through this header.
enum class CtrTier {
  kPortable,  // T-table EncryptBlock, one block at a time
  kAesNi,     // AES-NI, 8 blocks in flight in xmm registers
  kVaes512,   // VAES on AVX-512, 16 blocks in flight in 4 zmm registers
};

/// "portable", "aes-ni" or "vaes512".
const char* CtrTierName(CtrTier tier);

/// True when this build and this CPU can run `tier`.
bool CtrTierSupported(CtrTier tier);

/// The widest supported tier, decided once per process.
CtrTier ActiveCtrTier();

/// Aes::CtrXor on an explicit tier: for i < nblocks,
/// data[16i .. 16i+15] ^= E_k(nonce + first_block + i), with 128-bit
/// big-endian counter addition. `tier` must be supported.
void CtrXorBlocks(CtrTier tier, const Aes& aes,
                  const uint8_t nonce[Aes::kBlockSize], uint64_t first_block,
                  uint8_t* data, size_t nblocks);

/// AES-CTR over any byte range on an explicit tier: XORs `n` bytes at
/// `data` with the keystream starting at stream byte `offset`.
/// AesCtrCipher::CryptAt is this on ActiveCtrTier().
void CtrXorBytes(CtrTier tier, const Aes& aes,
                 const uint8_t nonce[Aes::kBlockSize], uint64_t offset,
                 uint8_t* data, size_t n);

}  // namespace crypto
}  // namespace shield

#endif  // SHIELD_CRYPTO_AES_CTR_KERNELS_H_
