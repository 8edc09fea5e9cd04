#include "crypto/aes_ctr_kernels.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SHIELD_AES_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace shield {
namespace crypto {

namespace {

// A kernel XORs the keystream of counters hi:lo, hi:lo+1, ...,
// hi:lo+nblocks-1 into `data`. The caller guarantees that the low 64
// bits do not wrap inside the run, so a kernel only ever adds to `lo`.
using CtrKernel = void (*)(const Aes& aes, uint64_t hi, uint64_t lo,
                           uint8_t* data, size_t nblocks);

inline uint64_t Load64BE(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; i++) {
    v = (v << 8) | p[i];
  }
  return v;
}

inline void Store64BE(uint8_t* p, uint64_t v) {
  for (int i = 7; i >= 0; i--) {
    p[i] = static_cast<uint8_t>(v);
    v >>= 8;
  }
}

void CtrXorPortable(const Aes& aes, uint64_t hi, uint64_t lo, uint8_t* data,
                    size_t nblocks) {
  uint8_t counter[Aes::kBlockSize];
  uint8_t keystream[Aes::kBlockSize];
  Store64BE(counter, hi);
  for (size_t i = 0; i < nblocks; i++) {
    Store64BE(counter + 8, lo + i);
    aes.EncryptBlock(counter, keystream);
    uint8_t* p = data + Aes::kBlockSize * i;
    for (size_t j = 0; j < Aes::kBlockSize; j += 8) {
      uint64_t word, kword;
      memcpy(&word, p + j, 8);
      memcpy(&kword, keystream + j, 8);
      word ^= kword;
      memcpy(p + j, &word, 8);
    }
  }
}

#ifdef SHIELD_AES_X86_DISPATCH

// The SIMD tiers keep each counter as a little-endian (lo, hi) qword
// pair in a 128-bit lane, step it with a 64-bit add, and byte-reverse
// the lane into the big-endian counter block AESENC takes.

__attribute__((target("aes,sse2,ssse3"))) void CtrXorAesNi(
    const Aes& aes, uint64_t hi, uint64_t lo, uint8_t* data,
    size_t nblocks) {
  constexpr size_t kLanes = 8;  // hides AESENC latency
  const __m128i* rk =
      reinterpret_cast<const __m128i*>(aes.round_key_bytes());
  const int rounds = aes.rounds();
  const __m128i bswap =
      _mm_setr_epi8(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
  const __m128i one = _mm_set_epi64x(0, 1);
  const __m128i step = _mm_set_epi64x(0, kLanes);
  __m128i ctr[kLanes];
  ctr[0] = _mm_set_epi64x(static_cast<long long>(hi),
                          static_cast<long long>(lo));
#pragma GCC unroll 8
  for (size_t j = 1; j < kLanes; j++) {
    ctr[j] = _mm_add_epi64(ctr[j - 1], one);
  }
  size_t i = 0;
  for (; i + kLanes <= nblocks; i += kLanes) {
    __m128i b[kLanes];
#pragma GCC unroll 8
    for (size_t j = 0; j < kLanes; j++) {
      b[j] = _mm_xor_si128(_mm_shuffle_epi8(ctr[j], bswap), rk[0]);
      ctr[j] = _mm_add_epi64(ctr[j], step);
    }
    for (int r = 1; r < rounds; r++) {
      const __m128i k = rk[r];
#pragma GCC unroll 8
      for (size_t j = 0; j < kLanes; j++) {
        b[j] = _mm_aesenc_si128(b[j], k);
      }
    }
    __m128i* p = reinterpret_cast<__m128i*>(data + Aes::kBlockSize * i);
#pragma GCC unroll 8
    for (size_t j = 0; j < kLanes; j++) {
      b[j] = _mm_aesenclast_si128(b[j], rk[rounds]);
      _mm_storeu_si128(p + j, _mm_xor_si128(_mm_loadu_si128(p + j), b[j]));
    }
  }
  // ctr[0] now holds the counter of block i.
  __m128i c = ctr[0];
  for (; i < nblocks; i++) {
    __m128i b = _mm_xor_si128(_mm_shuffle_epi8(c, bswap), rk[0]);
    for (int r = 1; r < rounds; r++) {
      b = _mm_aesenc_si128(b, rk[r]);
    }
    b = _mm_aesenclast_si128(b, rk[rounds]);
    __m128i* p = reinterpret_cast<__m128i*>(data + Aes::kBlockSize * i);
    _mm_storeu_si128(p, _mm_xor_si128(_mm_loadu_si128(p), b));
    c = _mm_add_epi64(c, one);
  }
}

// Copies a 128-bit value into all four lanes. The masked form compiles
// to the same VBROADCASTI32X4; GCC 12 flags the unmasked intrinsic's
// undefined pass-through operand as uninitialized.
__attribute__((target("avx512f"))) inline __m512i Broadcast128(__m128i x) {
  return _mm512_maskz_broadcast_i32x4(0xffff, x);
}

__attribute__((target("avx512f,avx512bw,vaes"))) void CtrXorVaes512(
    const Aes& aes, uint64_t hi, uint64_t lo, uint8_t* data,
    size_t nblocks) {
  constexpr size_t kRegs = 4;  // 4 zmm x 4 blocks = 16 blocks in flight
  const uint8_t* rkb = aes.round_key_bytes();
  const int rounds = aes.rounds();
  __m512i rk[15];
  for (int r = 0; r <= rounds; r++) {
    rk[r] = Broadcast128(
        _mm_load_si128(reinterpret_cast<const __m128i*>(rkb + 16 * r)));
  }
  const __m512i bswap = Broadcast128(
      _mm_setr_epi8(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0));
  const __m512i step4 = _mm512_set_epi64(0, 4, 0, 4, 0, 4, 0, 4);
  const __m512i step16 = _mm512_set_epi64(0, 16, 0, 16, 0, 16, 0, 16);
  const long long h = static_cast<long long>(hi);
  const long long l = static_cast<long long>(lo);
  // Lane k of register j holds block 4j + k. Counters past the end of
  // the run may wrap; they are never used.
  __m512i ctr[kRegs];
  ctr[0] = _mm512_add_epi64(_mm512_set_epi64(h, l, h, l, h, l, h, l),
                            _mm512_set_epi64(0, 3, 0, 2, 0, 1, 0, 0));
#pragma GCC unroll 4
  for (size_t j = 1; j < kRegs; j++) {
    ctr[j] = _mm512_add_epi64(ctr[j - 1], step4);
  }
  size_t i = 0;
  for (; i + 4 * kRegs <= nblocks; i += 4 * kRegs) {
    __m512i b[kRegs];
#pragma GCC unroll 4
    for (size_t j = 0; j < kRegs; j++) {
      b[j] = _mm512_xor_si512(_mm512_shuffle_epi8(ctr[j], bswap), rk[0]);
      ctr[j] = _mm512_add_epi64(ctr[j], step16);
    }
    for (int r = 1; r < rounds; r++) {
#pragma GCC unroll 4
      for (size_t j = 0; j < kRegs; j++) {
        b[j] = _mm512_aesenc_epi128(b[j], rk[r]);
      }
    }
    uint8_t* p = data + Aes::kBlockSize * i;
#pragma GCC unroll 4
    for (size_t j = 0; j < kRegs; j++) {
      b[j] = _mm512_aesenclast_epi128(b[j], rk[rounds]);
      _mm512_storeu_si512(
          p + 64 * j, _mm512_xor_si512(_mm512_loadu_si512(p + 64 * j), b[j]));
    }
  }
  // Fewer than 16 blocks left: one register at a time, the last one
  // under a byte mask. ctr[0] holds blocks i .. i+3.
  __m512i c = ctr[0];
  for (; i < nblocks; i += 4) {
    __m512i b = _mm512_xor_si512(_mm512_shuffle_epi8(c, bswap), rk[0]);
    for (int r = 1; r < rounds; r++) {
      b = _mm512_aesenc_epi128(b, rk[r]);
    }
    b = _mm512_aesenclast_epi128(b, rk[rounds]);
    const size_t left = nblocks - i;
    const __mmask64 mask =
        left >= 4 ? ~__mmask64{0}
                  : (__mmask64{1} << (Aes::kBlockSize * left)) - 1;
    uint8_t* p = data + Aes::kBlockSize * i;
    _mm512_mask_storeu_epi8(
        p, mask, _mm512_xor_si512(_mm512_maskz_loadu_epi8(mask, p), b));
    c = _mm512_add_epi64(c, step4);
  }
}

#endif  // SHIELD_AES_X86_DISPATCH

CtrKernel KernelFor(CtrTier tier) {
  assert(CtrTierSupported(tier));
  switch (tier) {
#ifdef SHIELD_AES_X86_DISPATCH
    case CtrTier::kVaes512:
      return CtrXorVaes512;
    case CtrTier::kAesNi:
      return CtrXorAesNi;
#endif
    default:
      return CtrXorPortable;
  }
}

}  // namespace

const char* CtrTierName(CtrTier tier) {
  switch (tier) {
    case CtrTier::kPortable:
      return "portable";
    case CtrTier::kAesNi:
      return "aes-ni";
    case CtrTier::kVaes512:
      return "vaes512";
  }
  return "unknown";
}

bool CtrTierSupported(CtrTier tier) {
  switch (tier) {
    case CtrTier::kPortable:
      return true;
#ifdef SHIELD_AES_X86_DISPATCH
    case CtrTier::kAesNi: {
      static const bool has = __builtin_cpu_supports("aes") &&
                              __builtin_cpu_supports("sse2") &&
                              __builtin_cpu_supports("ssse3");
      return has;
    }
    case CtrTier::kVaes512: {
      static const bool has = __builtin_cpu_supports("avx512f") &&
                              __builtin_cpu_supports("avx512bw") &&
                              __builtin_cpu_supports("vaes");
      return has;
    }
#endif
    default:
      return false;
  }
}

CtrTier ActiveCtrTier() {
  static const CtrTier tier =
      CtrTierSupported(CtrTier::kVaes512) ? CtrTier::kVaes512
      : CtrTierSupported(CtrTier::kAesNi) ? CtrTier::kAesNi
                                          : CtrTier::kPortable;
  return tier;
}

void CtrXorBlocks(CtrTier tier, const Aes& aes,
                  const uint8_t nonce[Aes::kBlockSize], uint64_t first_block,
                  uint8_t* data, size_t nblocks) {
  assert(aes.initialized());
  const CtrKernel kernel = KernelFor(tier);
  uint64_t hi = Load64BE(nonce);
  uint64_t lo = Load64BE(nonce + 8) + first_block;
  if (lo < first_block) {
    hi++;  // carry out of the low half
  }
  // Split the run where the low 64 bits wrap, so each piece still runs
  // on the wide kernel.
  while (nblocks > 0) {
    const uint64_t until_wrap = 0 - lo;  // 2^64 - lo; 0 when lo == 0
    const size_t run =
        (lo != 0 && until_wrap < nblocks) ? until_wrap : nblocks;
    assert(lo + (run - 1) >= lo);  // the kernels' no-wrap precondition
    kernel(aes, hi, lo, data, run);
    data += Aes::kBlockSize * run;
    nblocks -= run;
    lo += run;
    if (lo == 0) {
      hi++;
    }
  }
}

void CtrXorBytes(CtrTier tier, const Aes& aes,
                 const uint8_t nonce[Aes::kBlockSize], uint64_t offset,
                 uint8_t* data, size_t n) {
  uint64_t block = offset / Aes::kBlockSize;
  const size_t skip = offset % Aes::kBlockSize;
  // The unaligned head and tail run through the same kernel on a
  // one-block copy.
  if (skip != 0 && n > 0) {
    uint8_t buf[Aes::kBlockSize] = {};
    const size_t take = std::min(Aes::kBlockSize - skip, n);
    memcpy(buf + skip, data, take);
    CtrXorBlocks(tier, aes, nonce, block, buf, 1);
    memcpy(data, buf + skip, take);
    data += take;
    n -= take;
    block++;
  }
  const size_t full = n / Aes::kBlockSize;
  CtrXorBlocks(tier, aes, nonce, block, data, full);
  data += Aes::kBlockSize * full;
  n -= Aes::kBlockSize * full;
  block += full;
  if (n > 0) {
    uint8_t buf[Aes::kBlockSize] = {};
    memcpy(buf, data, n);
    CtrXorBlocks(tier, aes, nonce, block, buf, 1);
    memcpy(data, buf, n);
  }
}

void Aes::CtrXor(const uint8_t nonce[kBlockSize], uint64_t first_block,
                 uint8_t* data, size_t nblocks) const {
  CtrXorBlocks(ActiveCtrTier(), *this, nonce, first_block, data, nblocks);
}

}  // namespace crypto
}  // namespace shield
