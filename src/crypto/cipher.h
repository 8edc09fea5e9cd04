#ifndef SHIELD_CRYPTO_CIPHER_H_
#define SHIELD_CRYPTO_CIPHER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "util/slice.h"
#include "util/status.h"

namespace shield {
namespace crypto {

/// Stream cipher algorithms supported for file encryption. Values are
/// stable: they are persisted in file headers.
enum class CipherKind : uint8_t {
  kAes128Ctr = 1,
  kAes256Ctr = 2,
  kChaCha20 = 3,
};

const char* CipherKindName(CipherKind kind);

/// Key length in bytes required by a cipher kind.
size_t CipherKeySize(CipherKind kind);

/// Nonce length in bytes required by a cipher kind (16 for AES-CTR,
/// 12 for ChaCha20).
size_t CipherNonceSize(CipherKind kind);

/// An offset-addressable stream cipher: XORs data with a keystream
/// positioned at an absolute byte offset in the (conceptual) stream.
/// Because CTR-style keystreams are seekable, the same call performs
/// both encryption and decryption, and random-access reads (SST block
/// fetches) can decrypt any range without touching the rest of the
/// file.
///
/// Thread-compatible: CryptAt is const and carries no mutable state, so
/// concurrent calls on one instance are safe (used by SHIELD's
/// multi-threaded chunk encryption).
class StreamCipher {
 public:
  virtual ~StreamCipher() = default;

  /// XORs `n` bytes at `data`, in place, with the keystream starting at
  /// absolute byte `offset`. Returns InvalidArgument when the range is
  /// not addressable by the cipher's counter (e.g. ChaCha20's 32-bit
  /// RFC 7539 block counter wraps at 256 GiB); data is untouched in
  /// that case, so a failed call never half-encrypts a buffer.
  virtual Status CryptAt(uint64_t offset, char* data, size_t n) const = 0;

  virtual CipherKind kind() const = 0;
};

/// The crypto kernel tiers this process runs, for logs and properties:
/// "aes-ctr=<tier> ghash=<tier> sha256=<impl> crc32c=<impl>", for
/// example "aes-ctr=vaes512 ghash=vpclmulqdq sha256=sha-ni crc32c=sse4.2".
std::string CryptoDispatch();

/// Creates a stream cipher. `key` must be CipherKeySize(kind) bytes and
/// `nonce` CipherNonceSize(kind) bytes.
Status NewStreamCipher(CipherKind kind, const Slice& key, const Slice& nonce,
                       std::unique_ptr<StreamCipher>* out);

}  // namespace crypto
}  // namespace shield

#endif  // SHIELD_CRYPTO_CIPHER_H_
