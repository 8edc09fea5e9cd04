#ifndef SHIELD_CRYPTO_SHA256_H_
#define SHIELD_CRYPTO_SHA256_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/slice.h"

namespace shield {
namespace crypto {

/// Incremental SHA-256 (FIPS 180-4).
class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;

  Sha256();

  void Update(const void* data, size_t n);
  void Update(const Slice& data) { Update(data.data(), data.size()); }

  /// Finalizes into a 32-byte digest. The object must not be reused
  /// afterwards (construct a fresh one).
  void Final(uint8_t digest[kDigestSize]);

  /// One-shot convenience: returns the 32-byte digest of `data`.
  static std::string Digest(const Slice& data);

  /// The compression function this CPU runs: "sha-ni" or "portable".
  static const char* Implementation();

 private:
  void ProcessBlock(const uint8_t block[kBlockSize]);

  uint32_t h_[8];
  uint64_t total_len_ = 0;
  uint8_t buffer_[kBlockSize];
  size_t buffer_len_ = 0;
};

}  // namespace crypto
}  // namespace shield

#endif  // SHIELD_CRYPTO_SHA256_H_
