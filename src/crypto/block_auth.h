#ifndef SHIELD_CRYPTO_BLOCK_AUTH_H_
#define SHIELD_CRYPTO_BLOCK_AUTH_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>

#include "crypto/aes.h"
#include "crypto/cipher.h"
#include "crypto/ghash.h"
#include "crypto/hmac.h"
#include "util/slice.h"
#include "util/statistics.h"

namespace shield {
namespace crypto {

/// Tag length appended after each authenticated block (SST blocks) or
/// record (WAL/manifest). 128 bits keeps forgery probability negligible
/// while costing less than 0.4% of a 4 KiB block.
constexpr size_t kBlockAuthTagSize = 16;

/// The MAC of a file's tags. A file's header names it (the SHIELD
/// version byte, the EncFS magic), never a config knob, so files of
/// every format stay readable.
enum class BlockMac : uint8_t {
  kNone,        // format v1: CTR ciphertext only
  kHmacSha256,  // format v2: read, no longer written
  kGhash,       // format v3: what authenticated files are written with
};

/// Computes/verifies encrypt-then-MAC tags over the *ciphertext* image
/// of file blocks. C is the stored ciphertext of one block or record
/// at logical byte `offset`:
///
///   v3: tag = GHASH_H(C || zero pad || [0]64 || [bitlen C]64)
///             XOR AES-128_Km(LE64(offset) || 0^64)
///   v2: tag = HMAC-SHA256(mac_key, LE64(offset) || C)[0:16]
///
/// v3 is the GMAC shape of GCM (NIST SP 800-38D): a Carter-Wegman MAC
/// whose mask, one AES block of the offset, is used once because every
/// offset of a file is written once (DESIGN.md has the argument). The
/// per-file keys (H and Km for v3, mac_key for v2) come from HKDF over
/// the file key, salted with the file nonce, so EncFS files that share
/// the instance key still get independent MAC keys. In both formats
/// the offset pins every block to its position, defeating block
/// transplants within and across files.
///
/// SST blocks are sealed by the encrypted-file core
/// (shield/encrypted_file.h), which holds the ciphertext it has just
/// produced or read and MACs it directly: TagCiphertext and
/// VerifyCiphertext. WAL and manifest records are tagged above the
/// file wrapper, by the log writer and reader, which see plaintext
/// only; for them the authenticator keeps its own instance of the
/// file's deterministic, offset-seekable CTR cipher and re-encrypts the
/// plaintext to rebuild the ciphertext it MACs: ComputeTag and
/// VerifyTag. Both pairs use the file's MAC.
///
/// Thread-compatible: all methods are const and the cipher is seekable,
/// so concurrent compute/verify calls are safe.
class BlockAuthenticator {
 public:
  /// Derives the keys of `mac`, which must not be kNone, from the file
  /// key and nonce. `cipher` is the file's own cipher instance.
  BlockAuthenticator(BlockMac mac, const Slice& file_key,
                     const Slice& file_nonce,
                     std::unique_ptr<StreamCipher> cipher);
  ~BlockAuthenticator();

  BlockAuthenticator(const BlockAuthenticator&) = delete;
  BlockAuthenticator& operator=(const BlockAuthenticator&) = delete;

  BlockMac mac() const { return mac_; }

  /// Computes the tag for plaintext `parts` (concatenated) that the
  /// file wrapper will encrypt starting at logical byte `offset`.
  /// Writes kBlockAuthTagSize bytes to `tag`. Fails (propagating the
  /// cipher error) when the offset range is not addressable by the
  /// underlying cipher, e.g. past ChaCha20's counter limit.
  Status ComputeTag(uint64_t offset, std::initializer_list<Slice> parts,
                    char* tag) const;

  /// Verifies, in constant time, that `tag` matches plaintext `data`
  /// decrypted from logical byte `offset`. A cipher failure verifies
  /// as false: data at an unaddressable offset cannot be trusted.
  bool VerifyTag(uint64_t offset, const Slice& data, const Slice& tag) const;

  /// Computes the tag for `ciphertext`, the stored bytes at logical
  /// byte `offset`, without a cipher pass. Writes kBlockAuthTagSize
  /// bytes to `tag`.
  void TagCiphertext(uint64_t offset, const Slice& ciphertext,
                     char* tag) const;

  /// Verifies, in constant time, that `tag` matches the stored bytes
  /// `ciphertext` at logical byte `offset`.
  bool VerifyCiphertext(uint64_t offset, const Slice& ciphertext,
                        const Slice& tag) const;

  /// Mirrors subsequent tag computations/verifications into the
  /// crypto.hmac.* tickers, which count block MACs of either kind. A
  /// verification is not counted as a computation. `stats` must
  /// outlive the authenticator (or a later SetStatisticsSink(nullptr)).
  void SetStatisticsSink(Statistics* stats) {
    stats_.store(stats, std::memory_order_relaxed);
  }

 private:
  class TagStream;

  // The tag of plaintext `parts`, re-encrypted at `offset`; uncounted.
  Status TagPlaintext(uint64_t offset, std::initializer_list<Slice> parts,
                      char* tag) const;
  // The tag of stored bytes; uncounted.
  void MacCiphertext(uint64_t offset, const Slice& ciphertext,
                     char* tag) const;
  // Counts a tag produced for writing.
  void CountCompute() const;
  // Counts a verification, and a failed one, into the tickers.
  bool CountVerify(bool ok) const;

  const BlockMac mac_;
  std::optional<HmacSha256Keyed> hmac_;  // v2
  std::optional<GhashKey> hash_key_;     // v3: H and its powers
  Aes mask_;                             // v3: AES-128 under Km
  std::unique_ptr<StreamCipher> cipher_;
  std::atomic<Statistics*> stats_{nullptr};
};

/// Builds the authenticator of `mac` together with its private cipher
/// instance (used by ComputeTag/VerifyTag). Returns nullptr for kNone
/// or on cipher construction failure (caller treats the file as
/// unauthenticated and surfaces the error separately if needed).
std::unique_ptr<BlockAuthenticator> NewBlockAuthenticator(
    BlockMac mac, CipherKind kind, const Slice& file_key,
    const Slice& file_nonce);

/// The authenticator of the files this build writes: format v3, GHASH.
std::unique_ptr<BlockAuthenticator> NewBlockAuthenticator(
    CipherKind kind, const Slice& file_key, const Slice& file_nonce);

}  // namespace crypto
}  // namespace shield

#endif  // SHIELD_CRYPTO_BLOCK_AUTH_H_
