#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SHIELD_CRC32C_X86_DISPATCH 1
#endif

namespace shield {
namespace crc32c {

namespace {

// Byte-wise table for the Castagnoli polynomial 0x1EDC6F41
// (reflected: 0x82F63B78), generated at static-init time into a
// constexpr array so the table itself is baked into the binary.
constexpr uint32_t kPoly = 0x82F63B78u;

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t crc = i;
    for (int j = 0; j < 8; j++) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

uint32_t ExtendPortable(uint32_t crc, const char* data, size_t n) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; i++) {
    crc = kTable[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#if SHIELD_CRC32C_X86_DISPATCH

// SSE4.2 CRC32 instruction computes exactly this (reflected
// Castagnoli) polynomial, 8 bytes per instruction. Per-function target
// attribute + one-time runtime dispatch keeps the portable table as
// the fallback on CPUs without the instruction.
__attribute__((target("sse4.2"))) uint32_t ExtendHw(uint32_t crc,
                                                    const char* data,
                                                    size_t n) {
  const char* p = data;
  uint64_t crc64 = crc;
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc64 = __builtin_ia32_crc32qi(static_cast<uint32_t>(crc64),
                                   static_cast<uint8_t>(*p));
    p++;
    n--;
  }
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc64 = __builtin_ia32_crc32di(crc64, word);
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc64 = __builtin_ia32_crc32qi(static_cast<uint32_t>(crc64),
                                   static_cast<uint8_t>(*p));
    p++;
    n--;
  }
  return static_cast<uint32_t>(crc64);
}

bool HasSse42() {
  static const bool has = __builtin_cpu_supports("sse4.2");
  return has;
}

#endif  // SHIELD_CRC32C_X86_DISPATCH

}  // namespace

const char* Implementation() {
#if SHIELD_CRC32C_X86_DISPATCH
  if (HasSse42()) {
    return "sse4.2";
  }
#endif
  return "portable";
}

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  uint32_t crc = init_crc ^ 0xFFFFFFFFu;
#if SHIELD_CRC32C_X86_DISPATCH
  if (HasSse42()) {
    return ExtendHw(crc, data, n) ^ 0xFFFFFFFFu;
  }
#endif
  return ExtendPortable(crc, data, n) ^ 0xFFFFFFFFu;
}

}  // namespace crc32c
}  // namespace shield
