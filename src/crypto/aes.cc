#include "crypto/aes.h"

#include <array>

namespace shield {
namespace crypto {

namespace {

// The AES S-box (FIPS-197 Figure 7).
constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16,
};

constexpr uint8_t kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                               0x20, 0x40, 0x80, 0x1b, 0x36};

constexpr uint8_t Xtime(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

// T-table: Te0[x] = [ 2*S(x), S(x), S(x), 3*S(x) ] packed big-endian;
// the other three tables are byte rotations of Te0.
constexpr std::array<uint32_t, 256> MakeTe0() {
  std::array<uint32_t, 256> t{};
  for (int i = 0; i < 256; i++) {
    const uint8_t s = kSbox[i];
    const uint8_t s2 = Xtime(s);
    const uint8_t s3 = static_cast<uint8_t>(s2 ^ s);
    t[i] = (static_cast<uint32_t>(s2) << 24) | (static_cast<uint32_t>(s) << 16) |
           (static_cast<uint32_t>(s) << 8) | s3;
  }
  return t;
}

constexpr std::array<uint32_t, 256> kTe0 = MakeTe0();

inline uint32_t RotR8(uint32_t x) { return (x >> 8) | (x << 24); }

inline uint32_t Te0(uint8_t i) { return kTe0[i]; }
inline uint32_t Te1(uint8_t i) { return RotR8(kTe0[i]); }
inline uint32_t Te2(uint8_t i) { return RotR8(RotR8(kTe0[i])); }
inline uint32_t Te3(uint8_t i) { return RotR8(RotR8(RotR8(kTe0[i]))); }

inline uint32_t Load32BE(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | p[3];
}

inline void Store32BE(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

inline uint32_t SubWord(uint32_t w) {
  return (static_cast<uint32_t>(kSbox[(w >> 24) & 0xff]) << 24) |
         (static_cast<uint32_t>(kSbox[(w >> 16) & 0xff]) << 16) |
         (static_cast<uint32_t>(kSbox[(w >> 8) & 0xff]) << 8) |
         kSbox[w & 0xff];
}

inline uint32_t RotWord(uint32_t w) { return (w << 8) | (w >> 24); }

}  // namespace

Status Aes::Init(const Slice& key) {
  int nk;  // key length in 32-bit words
  switch (key.size()) {
    case 16:
      nk = 4;
      rounds_ = 10;
      break;
    case 24:
      nk = 6;
      rounds_ = 12;
      break;
    case 32:
      nk = 8;
      rounds_ = 14;
      break;
    default:
      rounds_ = 0;
      return Status::InvalidArgument("AES key must be 16, 24 or 32 bytes");
  }
  const uint8_t* k = reinterpret_cast<const uint8_t*>(key.data());
  const int total_words = 4 * (rounds_ + 1);
  for (int i = 0; i < nk; i++) {
    round_keys_[i] = Load32BE(k + 4 * i);
  }
  for (int i = nk; i < total_words; i++) {
    uint32_t temp = round_keys_[i - 1];
    if (i % nk == 0) {
      temp = SubWord(RotWord(temp)) ^
             (static_cast<uint32_t>(kRcon[i / nk]) << 24);
    } else if (nk > 6 && (i % nk) == 4) {
      temp = SubWord(temp);
    }
    round_keys_[i] = round_keys_[i - nk] ^ temp;
  }
  // Round keys in byte order for the SIMD CTR kernels: word i
  // big-endian at bytes 4i..4i+3.
  for (int i = 0; i < total_words; i++) {
    Store32BE(round_key_bytes_ + 4 * i, round_keys_[i]);
  }
  return Status::OK();
}

void Aes::EncryptBlock(const uint8_t in[kBlockSize],
                       uint8_t out[kBlockSize]) const {
  const uint32_t* rk = round_keys_;
  uint32_t s0 = Load32BE(in) ^ rk[0];
  uint32_t s1 = Load32BE(in + 4) ^ rk[1];
  uint32_t s2 = Load32BE(in + 8) ^ rk[2];
  uint32_t s3 = Load32BE(in + 12) ^ rk[3];

  uint32_t t0, t1, t2, t3;
  rk += 4;
  for (int r = 1; r < rounds_; r++) {
    t0 = Te0((s0 >> 24) & 0xff) ^ Te1((s1 >> 16) & 0xff) ^
         Te2((s2 >> 8) & 0xff) ^ Te3(s3 & 0xff) ^ rk[0];
    t1 = Te0((s1 >> 24) & 0xff) ^ Te1((s2 >> 16) & 0xff) ^
         Te2((s3 >> 8) & 0xff) ^ Te3(s0 & 0xff) ^ rk[1];
    t2 = Te0((s2 >> 24) & 0xff) ^ Te1((s3 >> 16) & 0xff) ^
         Te2((s0 >> 8) & 0xff) ^ Te3(s1 & 0xff) ^ rk[2];
    t3 = Te0((s3 >> 24) & 0xff) ^ Te1((s0 >> 16) & 0xff) ^
         Te2((s1 >> 8) & 0xff) ^ Te3(s2 & 0xff) ^ rk[3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
    rk += 4;
  }

  // Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
  t0 = (static_cast<uint32_t>(kSbox[(s0 >> 24) & 0xff]) << 24) |
       (static_cast<uint32_t>(kSbox[(s1 >> 16) & 0xff]) << 16) |
       (static_cast<uint32_t>(kSbox[(s2 >> 8) & 0xff]) << 8) |
       kSbox[s3 & 0xff];
  t1 = (static_cast<uint32_t>(kSbox[(s1 >> 24) & 0xff]) << 24) |
       (static_cast<uint32_t>(kSbox[(s2 >> 16) & 0xff]) << 16) |
       (static_cast<uint32_t>(kSbox[(s3 >> 8) & 0xff]) << 8) |
       kSbox[s0 & 0xff];
  t2 = (static_cast<uint32_t>(kSbox[(s2 >> 24) & 0xff]) << 24) |
       (static_cast<uint32_t>(kSbox[(s3 >> 16) & 0xff]) << 16) |
       (static_cast<uint32_t>(kSbox[(s0 >> 8) & 0xff]) << 8) |
       kSbox[s1 & 0xff];
  t3 = (static_cast<uint32_t>(kSbox[(s3 >> 24) & 0xff]) << 24) |
       (static_cast<uint32_t>(kSbox[(s0 >> 16) & 0xff]) << 16) |
       (static_cast<uint32_t>(kSbox[(s1 >> 8) & 0xff]) << 8) |
       kSbox[s2 & 0xff];

  Store32BE(out, t0 ^ rk[0]);
  Store32BE(out + 4, t1 ^ rk[1]);
  Store32BE(out + 8, t2 ^ rk[2]);
  Store32BE(out + 12, t3 ^ rk[3]);
}

}  // namespace crypto
}  // namespace shield
