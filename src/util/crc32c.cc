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

// The CRC register is linear: the register after bytes A then B is
// Shift_|B|(register after A) ^ (register over B started from 0), where
// Shift_L feeds L zero bytes. So three streams over adjacent stripes
// can run side by side and be combined at the end. For a fixed stripe
// length, Shift_L is a 32x32 bit matrix, tabulated here per byte of
// the register.
struct ShiftTable {
  std::array<std::array<uint32_t, 256>, 4> t{};

  uint32_t Shift(uint32_t crc) const {
    return t[0][crc & 0xFF] ^ t[1][(crc >> 8) & 0xFF] ^
           t[2][(crc >> 16) & 0xFF] ^ t[3][crc >> 24];
  }
};

constexpr ShiftTable MakeShiftTable(size_t len) {
  uint32_t basis[32] = {};
  for (int bit = 0; bit < 32; bit++) {
    uint32_t crc = 1u << bit;
    for (size_t i = 0; i < len; i++) {
      crc = kTable[crc & 0xFF] ^ (crc >> 8);
    }
    basis[bit] = crc;
  }
  ShiftTable table;
  for (int k = 0; k < 4; k++) {
    for (uint32_t b = 0; b < 256; b++) {
      uint32_t v = 0;
      for (int bit = 0; bit < 8; bit++) {
        if ((b >> bit) & 1) {
          v ^= basis[8 * k + bit];
        }
      }
      table.t[k][b] = v;
    }
  }
  return table;
}

constexpr size_t kStripe = 256;
constexpr ShiftTable kShift = MakeShiftTable(kStripe);

// One crc32q chain is bound by the instruction's 3-cycle latency; three
// independent chains over three stripes keep its unit busy. Consumes
// whole rounds of 3 * kStripe bytes from [*p, *p + *n).
__attribute__((target("sse4.2"))) uint64_t ExtendThreeWay(uint64_t crc,
                                                          const char** p,
                                                          size_t* n) {
  while (*n >= 3 * kStripe) {
    const char* a = *p;
    uint64_t c0 = crc, c1 = 0, c2 = 0;
    for (size_t i = 0; i < kStripe; i += 8) {
      uint64_t w0, w1, w2;
      std::memcpy(&w0, a + i, sizeof(w0));
      std::memcpy(&w1, a + kStripe + i, sizeof(w1));
      std::memcpy(&w2, a + 2 * kStripe + i, sizeof(w2));
      c0 = __builtin_ia32_crc32di(c0, w0);
      c1 = __builtin_ia32_crc32di(c1, w1);
      c2 = __builtin_ia32_crc32di(c2, w2);
    }
    crc = kShift.Shift(kShift.Shift(static_cast<uint32_t>(c0)) ^
                       static_cast<uint32_t>(c1)) ^
          static_cast<uint32_t>(c2);
    *p += 3 * kStripe;
    *n -= 3 * kStripe;
  }
  return crc;
}

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
  // Buffers of 3 * kStripe = 768 bytes and more run three streams; the
  // single chain below finishes the tail.
  crc64 = ExtendThreeWay(crc64, &p, &n);
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
