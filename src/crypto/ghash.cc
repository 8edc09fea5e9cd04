#include "crypto/ghash.h"

#include <cassert>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SHIELD_GHASH_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace shield {
namespace crypto {

namespace {

// A kernel folds `nblocks` whole 16-byte blocks into `state`:
// state = (state ^ X_i) * H for each block in turn, in the
// byte-reversed domain.
using GhashKernel = void (*)(const GhashKey& key, uint64_t state[2],
                             const uint8_t* data, size_t nblocks);

// x^63 + x^62 + x^57: the low half of the reversed GHASH polynomial
// the Montgomery reduction folds with (RFC 8452, POLYVAL).
constexpr uint64_t kReduceConst = 0xc200000000000000ULL;

struct U128 {
  uint64_t lo;
  uint64_t hi;
};

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

// A GCM block as a byte-reversed little-endian 128-bit integer.
inline U128 LoadReversed(const uint8_t* p) {
  return U128{Load64BE(p + 8), Load64BE(p)};
}

// The low 64 bits of the carry-less product x * y, by ordinary integer
// multiplies of operands thinned to every fourth bit. The holes absorb
// the carries: below bit 60 at most 15 one-bits meet at a position, so
// their sum never reaches the next bit of the same class; at bits
// 60-63 a sum of 16 carries to bit 64 or above, off the word.
inline uint64_t Bmul64(uint64_t x, uint64_t y) {
  const uint64_t m0 = 0x1111111111111111ULL;
  const uint64_t m1 = 0x2222222222222222ULL;
  const uint64_t m2 = 0x4444444444444444ULL;
  const uint64_t m3 = 0x8888888888888888ULL;
  const uint64_t x0 = x & m0, x1 = x & m1, x2 = x & m2, x3 = x & m3;
  const uint64_t y0 = y & m0, y1 = y & m1, y2 = y & m2, y3 = y & m3;
  const uint64_t z0 = (x0 * y0) ^ (x1 * y3) ^ (x2 * y2) ^ (x3 * y1);
  const uint64_t z1 = (x0 * y1) ^ (x1 * y0) ^ (x2 * y3) ^ (x3 * y2);
  const uint64_t z2 = (x0 * y2) ^ (x1 * y1) ^ (x2 * y0) ^ (x3 * y3);
  const uint64_t z3 = (x0 * y3) ^ (x1 * y2) ^ (x2 * y1) ^ (x3 * y0);
  return (z0 & m0) | (z1 & m1) | (z2 & m2) | (z3 & m3);
}

inline uint64_t ReverseBits64(uint64_t x) {
  x = ((x >> 1) & 0x5555555555555555ULL) | ((x & 0x5555555555555555ULL) << 1);
  x = ((x >> 2) & 0x3333333333333333ULL) | ((x & 0x3333333333333333ULL) << 2);
  x = ((x >> 4) & 0x0f0f0f0f0f0f0f0fULL) | ((x & 0x0f0f0f0f0f0f0f0fULL) << 4);
  return __builtin_bswap64(x);
}

// The full carry-less product x * y. Its high half is the low half of
// the product of the bit-reversed operands, reversed back.
inline U128 Clmul64(uint64_t x, uint64_t y) {
  return U128{Bmul64(x, y),
              ReverseBits64(Bmul64(ReverseBits64(x), ReverseBits64(y))) >> 1};
}

// Reduces the 256-bit product hi:lo to lo * x^-128 + hi modulo the
// reversed polynomial: two Montgomery folds of the low word, each a
// carry-less multiply by kReduceConst (here three shifts) and a swap.
inline U128 Reduce(U128 lo, U128 hi) {
  for (int fold = 0; fold < 2; fold++) {
    const uint64_t t = lo.lo;
    const U128 m{(t << 63) ^ (t << 62) ^ (t << 57),
                 (t >> 1) ^ (t >> 2) ^ (t >> 7)};
    lo = U128{lo.hi ^ m.lo, t ^ m.hi};
  }
  return U128{hi.lo ^ lo.lo, hi.hi ^ lo.hi};
}

// The field product of RFC 8452's POLYVAL, a * b * x^-128, by one
// Karatsuba step over 64-bit halves.
inline U128 Dot(U128 a, U128 b) {
  U128 lo = Clmul64(a.lo, b.lo);
  U128 hi = Clmul64(a.hi, b.hi);
  U128 mid = Clmul64(a.lo ^ a.hi, b.lo ^ b.hi);
  mid.lo ^= lo.lo ^ hi.lo;
  mid.hi ^= lo.hi ^ hi.hi;
  lo.hi ^= mid.lo;
  hi.lo ^= mid.hi;
  return Reduce(lo, hi);
}

void GhashPortable(const GhashKey& key, uint64_t state[2],
                   const uint8_t* data, size_t nblocks) {
  const U128 h{key.power(1)[0], key.power(1)[1]};
  U128 s{state[0], state[1]};
  for (size_t i = 0; i < nblocks; i++) {
    const U128 x = LoadReversed(data + 16 * i);
    s = Dot(U128{s.lo ^ x.lo, s.hi ^ x.hi}, h);
  }
  state[0] = s.lo;
  state[1] = s.hi;
}

#ifdef SHIELD_GHASH_X86_DISPATCH

// Adds the unreduced product a * b to lo, mid and hi, where mid holds
// the two cross terms straddling the 64-bit boundary.
__attribute__((target("pclmul,sse2"))) inline void MulAdd128(
    __m128i a, __m128i b, __m128i* lo, __m128i* mid, __m128i* hi) {
  *lo = _mm_xor_si128(*lo, _mm_clmulepi64_si128(a, b, 0x00));
  *hi = _mm_xor_si128(*hi, _mm_clmulepi64_si128(a, b, 0x11));
  *mid = _mm_xor_si128(*mid, _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x01),
                                           _mm_clmulepi64_si128(a, b, 0x10)));
}

// Reduce() on PCLMULQDQ, after splitting mid across lo and hi.
__attribute__((target("pclmul,sse2"))) inline __m128i Reduce128(
    __m128i lo, __m128i mid, __m128i hi) {
  const __m128i poly = _mm_set_epi64x(static_cast<long long>(kReduceConst), 1);
  lo = _mm_xor_si128(lo, _mm_slli_si128(mid, 8));
  hi = _mm_xor_si128(hi, _mm_srli_si128(mid, 8));
  for (int fold = 0; fold < 2; fold++) {
    lo = _mm_xor_si128(_mm_shuffle_epi32(lo, 0x4e),
                       _mm_clmulepi64_si128(lo, poly, 0x10));
  }
  return _mm_xor_si128(lo, hi);
}

// Block i of `data`, byte-reversed.
__attribute__((target("sse2,ssse3"))) inline __m128i LoadBlock(
    const uint8_t* data, size_t i) {
  const __m128i bswap =
      _mm_setr_epi8(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
      bswap);
}

__attribute__((target("pclmul,sse2,ssse3"))) void GhashPclmul(
    const GhashKey& key, uint64_t state[2], const uint8_t* data,
    size_t nblocks) {
  constexpr size_t kLanes = 4;  // blocks per reduction
  __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i h[kLanes];
#pragma GCC unroll 4
  for (size_t j = 0; j < kLanes; j++) {
    h[j] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(key.power(kLanes - j)));
  }
  size_t i = 0;
  for (; i + kLanes <= nblocks; i += kLanes) {
    __m128i lo = _mm_setzero_si128();
    __m128i mid = lo;
    __m128i hi = lo;
    MulAdd128(_mm_xor_si128(s, LoadBlock(data, i)), h[0], &lo, &mid, &hi);
#pragma GCC unroll 3
    for (size_t j = 1; j < kLanes; j++) {
      MulAdd128(LoadBlock(data, i + j), h[j], &lo, &mid, &hi);
    }
    s = Reduce128(lo, mid, hi);
  }
  for (; i < nblocks; i++) {
    __m128i lo = _mm_setzero_si128();
    __m128i mid = lo;
    __m128i hi = lo;
    MulAdd128(_mm_xor_si128(s, LoadBlock(data, i)), h[kLanes - 1], &lo,
              &mid, &hi);
    s = Reduce128(lo, mid, hi);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), s);
}

// XORs the four 128-bit lanes of `v` together. The masked extracts
// compile to the plain VEXTRACTI64X4; GCC 12 flags the unmasked
// intrinsic's undefined pass-through operand as uninitialized.
__attribute__((target("avx512f"))) inline __m128i FoldLanes(__m512i v) {
  const __m256i half =
      _mm256_xor_si256(_mm512_maskz_extracti64x4_epi64(0xf, v, 0),
                       _mm512_maskz_extracti64x4_epi64(0xf, v, 1));
  return _mm_xor_si128(_mm256_castsi256_si128(half),
                       _mm256_extracti128_si256(half, 1));
}

__attribute__((target("avx512f,avx512bw,vpclmulqdq,pclmul,sse2,ssse3"))) void
GhashVpclmul(const GhashKey& key, uint64_t state[2], const uint8_t* data,
             size_t nblocks) {
  constexpr size_t kRegs = 4;  // 4 zmm x 4 lanes = 16 blocks per reduction
  constexpr size_t kBlocks = 4 * kRegs;
  static_assert(kBlocks == GhashKey::kMaxPowers, "one power per block");
  const __m512i bswap = _mm512_maskz_broadcast_i32x4(
      0xffff,
      _mm_setr_epi8(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0));
  // Lane k of register j multiplies block 4j + k by H^(16 - 4j - k).
  __m512i h[kRegs];
#pragma GCC unroll 4
  for (size_t j = 0; j < kRegs; j++) {
    h[j] = _mm512_loadu_si512(key.power(kBlocks - 4 * j));
  }
  __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  size_t i = 0;
  for (; i + kBlocks <= nblocks; i += kBlocks) {
    const uint8_t* p = data + 16 * i;
    __m512i lo = _mm512_setzero_si512();
    __m512i mid = lo;
    __m512i hi = lo;
#pragma GCC unroll 4
    for (size_t j = 0; j < kRegs; j++) {
      __m512i x = _mm512_shuffle_epi8(_mm512_loadu_si512(p + 64 * j), bswap);
      if (j == 0) {
        x = _mm512_xor_si512(x, _mm512_maskz_broadcast_i32x4(0x000f, s));
      }
      lo = _mm512_xor_si512(lo, _mm512_clmulepi64_epi128(x, h[j], 0x00));
      hi = _mm512_xor_si512(hi, _mm512_clmulepi64_epi128(x, h[j], 0x11));
      mid = _mm512_xor_si512(
          mid, _mm512_xor_si512(_mm512_clmulepi64_epi128(x, h[j], 0x01),
                                _mm512_clmulepi64_epi128(x, h[j], 0x10)));
    }
    s = Reduce128(FoldLanes(lo), FoldLanes(mid), FoldLanes(hi));
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), s);
  // Fewer than 16 blocks left.
  GhashPclmul(key, state, data + 16 * i, nblocks - i);
}

#endif  // SHIELD_GHASH_X86_DISPATCH

GhashKernel KernelFor(GhashTier tier) {
  assert(GhashTierSupported(tier));
  switch (tier) {
#ifdef SHIELD_GHASH_X86_DISPATCH
    case GhashTier::kVpclmul:
      return GhashVpclmul;
    case GhashTier::kPclmul:
      return GhashPclmul;
#endif
    default:
      return GhashPortable;
  }
}

}  // namespace

const char* GhashTierName(GhashTier tier) {
  switch (tier) {
    case GhashTier::kPortable:
      return "portable";
    case GhashTier::kPclmul:
      return "pclmulqdq";
    case GhashTier::kVpclmul:
      return "vpclmulqdq";
  }
  return "unknown";
}

bool GhashTierSupported(GhashTier tier) {
  switch (tier) {
    case GhashTier::kPortable:
      return true;
#ifdef SHIELD_GHASH_X86_DISPATCH
    case GhashTier::kPclmul: {
      static const bool has = __builtin_cpu_supports("pclmul") &&
                              __builtin_cpu_supports("sse2") &&
                              __builtin_cpu_supports("ssse3");
      return has;
    }
    case GhashTier::kVpclmul: {
      // The tail of a run goes to the PCLMULQDQ kernel.
      static const bool has = GhashTierSupported(GhashTier::kPclmul) &&
                              __builtin_cpu_supports("avx512f") &&
                              __builtin_cpu_supports("avx512bw") &&
                              __builtin_cpu_supports("vpclmulqdq");
      return has;
    }
#endif
    default:
      return false;
  }
}

GhashTier ActiveGhashTier() {
  static const GhashTier tier =
      GhashTierSupported(GhashTier::kVpclmul)  ? GhashTier::kVpclmul
      : GhashTierSupported(GhashTier::kPclmul) ? GhashTier::kPclmul
                                               : GhashTier::kPortable;
  return tier;
}

GhashKey::GhashKey(const uint8_t h[16]) {
  // The multiplier of the byte-reversed domain is H * x (RFC 8452,
  // mulX_POLYVAL), which cancels the x^-128 of each Dot against the
  // bit order GCM defines.
  U128 v = LoadReversed(h);
  const uint64_t carry = 0 - (v.hi >> 63);
  v = U128{(v.lo << 1) ^ (carry & 1), ((v.hi << 1) | (v.lo >> 63)) ^
                                          (carry & kReduceConst)};
  U128 p = v;
  for (size_t k = 1; k <= kMaxPowers; k++) {
    uint64_t* out = powers_[kMaxPowers - k];
    out[0] = p.lo;
    out[1] = p.hi;
    p = Dot(p, v);
  }
}

Ghash::Ghash(const GhashKey& key, GhashTier tier) : key_(key), tier_(tier) {}

void Ghash::Blocks(const uint8_t* data, size_t nblocks) {
  KernelFor(tier_)(key_, state_, data, nblocks);
}

void Ghash::Update(const void* data, size_t n) {
  if (n == 0) {
    return;
  }
  const uint8_t* p = static_cast<const uint8_t*>(data);
  length_ += n;
  if (partial_size_ > 0) {
    const size_t take = n < 16 - partial_size_ ? n : 16 - partial_size_;
    memcpy(partial_ + partial_size_, p, take);
    partial_size_ += take;
    p += take;
    n -= take;
    if (partial_size_ < 16) {
      return;
    }
    Blocks(partial_, 1);
    partial_size_ = 0;
  }
  const size_t full = n / 16;
  if (full > 0) {
    Blocks(p, full);
  }
  partial_size_ = n - 16 * full;
  memcpy(partial_, p + 16 * full, partial_size_);
}

void Ghash::Finish(uint8_t out[16]) {
  if (partial_size_ > 0) {
    memset(partial_ + partial_size_, 0, 16 - partial_size_);
    Blocks(partial_, 1);
  }
  uint8_t lengths[16] = {};  // [0]64 for the empty additional data
  Store64BE(lengths + 8, length_ * 8);
  Blocks(lengths, 1);
  Store64BE(out, state_[1]);
  Store64BE(out + 8, state_[0]);
}

}  // namespace crypto
}  // namespace shield
