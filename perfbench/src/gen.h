// Input generation and value checking for the SHIELD benchmark.
//
// Everything here belongs to the benchmark, not to the library: the
// seed, the key order, the key popularity and the value format are
// fixed by these files, so a change under test cannot alter its own
// inputs or the check applied to its outputs.

#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// xoshiro256** seeded through splitmix64.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    for (auto& word : s_) word = SplitMix64(&seed);
  }

  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, n).
  uint64_t Uniform(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }

  /// Uniform in [0, 1).
  double NextDouble() { return (Next() >> 11) * 0x1.0p-53; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

/// YCSB's scrambled Zipfian generator: item ranks follow Zipf(theta)
/// and are hashed over [0, n) so the hot items are spread across the
/// key space instead of clustering in one SST.
class ScrambledZipfian {
 public:
  ScrambledZipfian(uint64_t n, double theta) : n_(n), theta_(theta) {
    for (uint64_t i = 1; i <= n; ++i) zetan_ += 1.0 / std::pow(double(i), theta);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
  }

  uint64_t Next(Rng* rng) {
    const double u = rng->NextDouble();
    const double uz = u * zetan_;
    uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, theta_)) {
      rank = 1;
    } else {
      rank = static_cast<uint64_t>(double(n_) *
                                   std::pow(eta_ * u - eta_ + 1.0, alpha_));
      if (rank >= n_) rank = n_ - 1;
    }
    uint64_t h = rank ^ 0x5bd1e9955bd1e995ull;
    return SplitMix64(&h) % n_;
  }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
};

/// CRC-32 (IEEE polynomial), bytewise. Independent of the library's
/// crc32c so the value check does not trust the code under test.
inline uint32_t Crc32(const char* data, size_t n) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ static_cast<uint8_t>(data[i])) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

constexpr size_t kKeySize = 16;

/// Key of item `id`. Written items use even slots and never-written
/// probes odd ones, so a probe sorts between real keys and reaches the
/// Bloom filter instead of being rejected by an SST's key range.
inline std::string KeyOf(uint64_t id, bool written = true) {
  char buf[kKeySize + 1];
  snprintf(buf, sizeof(buf), "k%015llu",
           static_cast<unsigned long long>(2 * id + (written ? 0 : 1)));
  return std::string(buf, kKeySize);
}

/// Value layout: key (16 B) | sequence (8 B, little endian) | filler |
/// CRC-32 of everything before it (4 B). The filler is a function of
/// (key, sequence), so every version of a key differs in every byte
/// region the engine stores.
inline void MakeValue(const std::string& key, uint64_t seq, size_t size,
                      std::string* out) {
  out->resize(size);
  char* p = out->data();
  memcpy(p, key.data(), kKeySize);
  for (int i = 0; i < 8; ++i) p[kKeySize + i] = static_cast<char>(seq >> (8 * i));
  uint64_t state = seq * 0x100000001b3ull ^ Crc32(key.data(), kKeySize);
  for (size_t off = kKeySize + 8; off < size - 4; off += 8) {
    const uint64_t word = SplitMix64(&state);
    memcpy(p + off, &word, std::min<size_t>(8, size - 4 - off));
  }
  const uint32_t crc = Crc32(p, size - 4);
  memcpy(p + size - 4, &crc, 4);
}

/// True when `value` is the intact value `seq` of `key`.
inline bool CheckValue(const std::string& key, uint64_t seq, size_t size,
                       const std::string& value) {
  if (value.size() != size || memcmp(value.data(), key.data(), kKeySize) != 0) {
    return false;
  }
  uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= uint64_t(static_cast<uint8_t>(value[kKeySize + i])) << (8 * i);
  }
  uint32_t crc;
  memcpy(&crc, value.data() + size - 4, 4);
  return stored == seq && crc == Crc32(value.data(), size - 4);
}

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
