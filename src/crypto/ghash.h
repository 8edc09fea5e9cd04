#ifndef SHIELD_CRYPTO_GHASH_H_
#define SHIELD_CRYPTO_GHASH_H_

#include <cstddef>
#include <cstdint>

namespace shield {
namespace crypto {

/// GHASH, the universal hash of GCM (NIST SP 800-38D, Section 6.4), in
/// three kernel tiers that produce the same bytes. The widest tier the
/// CPU supports is chosen once per process; tests and benchmarks call
/// a tier by name through this header.
///
/// Every tier works in the byte-reversed domain of RFC 8452 (a block
/// is loaded as a little-endian 128-bit integer after reversing its
/// bytes), where a field product is one carry-less multiply and a
/// two-step Montgomery reduction. The kernels hash many blocks per
/// reduction: block i of a run of n is multiplied by H^(n-i+1), and the
/// products are summed before one reduction.
enum class GhashTier {
  kPortable,  // masked 64-bit integer multiplies, no key-indexed tables
  kPclmul,    // PCLMULQDQ, 4 blocks per reduction
  kVpclmul,   // VPCLMULQDQ on AVX-512, 16 blocks per reduction
};

/// "portable", "pclmulqdq" or "vpclmulqdq".
const char* GhashTierName(GhashTier tier);

/// True when this build and this CPU can run `tier`.
bool GhashTierSupported(GhashTier tier);

/// The widest supported tier, decided once per process.
GhashTier ActiveGhashTier();

/// A hash key H with its powers H^1 .. H^16 precomputed (256 bytes).
class GhashKey {
 public:
  static constexpr size_t kMaxPowers = 16;

  /// `h` is the 16-byte hash subkey in GCM byte order.
  explicit GhashKey(const uint8_t h[16]);

  /// H^k for k = 1 .. kMaxPowers in the byte-reversed domain, stored
  /// highest power first: powers()[kMaxPowers - k] is H^k, so the
  /// multipliers of a run of n blocks are the last n entries, in block
  /// order. Each entry is two little-endian 64-bit words, low first.
  const uint64_t* power(size_t k) const {
    return powers_[kMaxPowers - k];
  }

 private:
  alignas(64) uint64_t powers_[kMaxPowers][2];
};

/// Streaming GHASH_H(X || zero pad || [0]64 || [bitlen X]64): the GCM
/// tag hash of ciphertext X with empty additional data. Update may be
/// called with any split of X; partial blocks are carried between
/// calls. `key` must outlive the object.
class Ghash {
 public:
  explicit Ghash(const GhashKey& key, GhashTier tier = ActiveGhashTier());

  void Update(const void* data, size_t n);

  /// Pads X to a whole block, hashes the length block and writes the
  /// 16-byte hash in GCM byte order. The object must not be reused.
  void Finish(uint8_t out[16]);

 private:
  void Blocks(const uint8_t* data, size_t nblocks);

  const GhashKey& key_;
  const GhashTier tier_;
  uint64_t state_[2] = {0, 0};  // byte-reversed domain, low word first
  uint8_t partial_[16];
  size_t partial_size_ = 0;
  uint64_t length_ = 0;  // bytes of X so far
};

}  // namespace crypto
}  // namespace shield

#endif  // SHIELD_CRYPTO_GHASH_H_
