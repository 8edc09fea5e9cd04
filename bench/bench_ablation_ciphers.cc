// Ablation (beyond the paper): cipher choice under SHIELD. The paper
// fixes AES-128-CTR; this compares the per-file cipher options the
// design supports (AES-128-CTR, AES-256-CTR, ChaCha20) on fillrandom
// and readrandom, plus the raw keystream cost of each cipher and of
// each AES-CTR kernel tier this CPU can run, called directly.

#include "bench_common.h"
#include "crypto/aes_ctr_kernels.h"
#include "crypto/cipher.h"
#include "crypto/secure_random.h"
#include "util/clock.h"

using namespace shield;
using namespace shield::bench;

namespace {

// Nanoseconds per KiB of `crypt` over a 1 MiB buffer, repeated for at
// least 200 ms.
template <typename Crypt>
double NsPerKib(Crypt crypt) {
  std::string buf(1 << 20, 'b');
  crypt(buf.data(), buf.size());  // warm-up
  const uint64_t t0 = NowNanos();
  uint64_t rounds = 0;
  do {
    crypt(buf.data(), buf.size());
    rounds++;
  } while (NowNanos() - t0 < 200'000'000);
  return static_cast<double>(NowNanos() - t0) / (rounds * 1024.0);
}

}  // namespace

int main() {
  printf("\n=== Ablation: cipher choice ===\n");
  printf("crypto dispatch: %s\n", crypto::CryptoDispatch().c_str());
  printf("raw keystream cost through CryptAt (1 MiB buffer):\n");
  for (crypto::CipherKind kind :
       {crypto::CipherKind::kAes128Ctr, crypto::CipherKind::kAes256Ctr,
        crypto::CipherKind::kChaCha20}) {
    std::unique_ptr<crypto::StreamCipher> cipher;
    crypto::NewStreamCipher(kind,
                            crypto::SecureRandomString(
                                crypto::CipherKeySize(kind)),
                            crypto::SecureRandomString(
                                crypto::CipherNonceSize(kind)),
                            &cipher);
    const double ns = NsPerKib([&](char* data, size_t n) {
      cipher->CryptAt(0, data, n);
    });
    printf("  %-14s %8.1f ns/KiB %8.1f MiB/s\n", crypto::CipherKindName(kind),
           ns, 1e9 / (ns * 1024));
  }

  printf("AES-CTR kernel tiers, called directly (1 MiB buffer):\n");
  const std::string nonce = crypto::SecureRandomString(16);
  for (size_t key_size : {16, 32}) {
    crypto::Aes aes;
    aes.Init(crypto::SecureRandomString(key_size));
    for (crypto::CtrTier tier :
         {crypto::CtrTier::kVaes512, crypto::CtrTier::kAesNi,
          crypto::CtrTier::kPortable}) {
      if (!crypto::CtrTierSupported(tier)) {
        printf("  AES-%zu %-9s (not supported on this CPU)\n", key_size * 8,
               crypto::CtrTierName(tier));
        continue;
      }
      const double ns = NsPerKib([&](char* data, size_t n) {
        crypto::CtrXorBytes(tier, aes,
                            reinterpret_cast<const uint8_t*>(nonce.data()),
                            0, reinterpret_cast<uint8_t*>(data), n);
      });
      printf("  AES-%zu %-9s %8.1f ns/KiB %8.1f MiB/s\n", key_size * 8,
             crypto::CtrTierName(tier), ns, 1e9 / (ns * 1024));
    }
  }

  PrintBenchHeader("SHIELD end-to-end by cipher (fillrandom + readrandom)",
                   "(ablation beyond the paper; paper uses AES-128-CTR)");
  for (crypto::CipherKind kind :
       {crypto::CipherKind::kAes128Ctr, crypto::CipherKind::kAes256Ctr,
        crypto::CipherKind::kChaCha20}) {
    Options options = MonolithOptions();
    ApplyEngine(Engine::kShieldWalBuf, &options);
    options.encryption.cipher = kind;
    auto db = OpenFresh(options, "ciphers");

    WorkloadOptions workload;
    workload.num_ops = DefaultOps() / 2;
    workload.num_keys = DefaultKeys();
    BenchResult write_result = FillRandom(
        db.get(), workload,
        std::string(crypto::CipherKindName(kind)) + " fillrandom");
    PrintResult(write_result);
    db->WaitForIdle();

    WorkloadOptions reads = workload;
    reads.num_ops = DefaultReads() / 2;
    BenchResult read_result = ReadRandom(
        db.get(), reads,
        std::string(crypto::CipherKindName(kind)) + " readrandom");
    PrintResult(read_result);
    db.reset();
    Cleanup(options, "ciphers");
  }
  return 0;
}
