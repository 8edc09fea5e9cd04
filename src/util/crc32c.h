#ifndef SHIELD_UTIL_CRC32C_H_
#define SHIELD_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace shield {
namespace crc32c {

/// Returns the CRC32C (Castagnoli polynomial) of data[0, n-1] extended
/// from an initial crc (use 0 for a fresh computation).
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

/// The implementation this CPU runs: "sse4.2" or "portable".
const char* Implementation();

// CRC values stored on disk are "masked" (as in LevelDB/RocksDB) so that
// computing the CRC of a string that already contains embedded CRCs does
// not degrade the hash.
static constexpr uint32_t kMaskDelta = 0xa282ead8ul;

inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace crc32c
}  // namespace shield

#endif  // SHIELD_UTIL_CRC32C_H_
