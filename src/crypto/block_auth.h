#ifndef SHIELD_CRYPTO_BLOCK_AUTH_H_
#define SHIELD_CRYPTO_BLOCK_AUTH_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>

#include "crypto/cipher.h"
#include "crypto/hmac.h"
#include "util/slice.h"
#include "util/statistics.h"

namespace shield {
namespace crypto {

/// Truncated HMAC-SHA256 tag length appended after each authenticated
/// block (SST blocks) or record (WAL/manifest). 128 bits keeps forgery
/// probability negligible while costing less than 0.4% of a 4 KiB block.
constexpr size_t kBlockAuthTagSize = 16;

/// Derives the per-file MAC key for block authentication from the file
/// encryption key. Binding the salt to the file nonce gives every file
/// an independent MAC key even when DEKs are reused (EncFS instance
/// key), and the versioned info string domain-separates the MAC key
/// from the encryption keystream.
std::string DeriveBlockMacKey(const Slice& file_key, const Slice& file_nonce);

/// Computes/verifies encrypt-then-MAC tags over the *ciphertext* image
/// of file blocks:
///
/// tag = HMAC-SHA256(mac_key, LE64(offset) || ciphertext)[0:16]
///
/// Including the offset in the MAC input pins every block to its
/// position, defeating block transplants within and across files.
///
/// SST blocks are sealed by the encrypted-file core
/// (shield/encrypted_file.h), which holds the ciphertext it has just
/// produced or read and MACs it directly: TagCiphertext and
/// VerifyCiphertext. WAL and manifest records are tagged above the
/// file wrapper, by the log writer and reader, which see plaintext
/// only; for them the authenticator keeps its own instance of the
/// file's deterministic, offset-seekable CTR cipher and re-encrypts the
/// plaintext to rebuild the ciphertext it MACs: ComputeTag and
/// VerifyTag.
///
/// Thread-compatible: all methods are const and the cipher is seekable,
/// so concurrent compute/verify calls are safe.
class BlockAuthenticator {
 public:
  BlockAuthenticator(std::string mac_key, std::unique_ptr<StreamCipher> cipher);
  ~BlockAuthenticator();

  BlockAuthenticator(const BlockAuthenticator&) = delete;
  BlockAuthenticator& operator=(const BlockAuthenticator&) = delete;

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
  /// crypto.hmac.* tickers. `stats` must outlive the authenticator (or
  /// a later SetStatisticsSink(nullptr)).
  void SetStatisticsSink(Statistics* stats) {
    stats_.store(stats, std::memory_order_relaxed);
  }

 private:
  // The inner hash after LE64(offset), and the truncated tag from it.
  Sha256 BeginTag(uint64_t offset) const;
  void FinishTag(Sha256* inner, char* tag) const;
  // Counts a verification, and a failed one, into the tickers.
  bool CountVerify(bool ok) const;

  std::string mac_key_;
  HmacSha256Keyed mac_;  // key schedule hoisted out of the per-tag path
  std::unique_ptr<StreamCipher> cipher_;
  std::atomic<Statistics*> stats_{nullptr};
};

/// Convenience: derives the MAC key and builds the authenticator's
/// private cipher instance (used by ComputeTag/VerifyTag) in one step.
/// Returns nullptr on cipher construction failure (caller treats the
/// file as unauthenticated and surfaces the error separately if
/// needed).
std::unique_ptr<BlockAuthenticator> NewBlockAuthenticator(
    CipherKind kind, const Slice& file_key, const Slice& file_nonce);

}  // namespace crypto
}  // namespace shield

#endif  // SHIELD_CRYPTO_BLOCK_AUTH_H_
