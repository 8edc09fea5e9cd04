#ifndef SHIELD_SHIELD_FILE_CRYPTO_H_
#define SHIELD_SHIELD_FILE_CRYPTO_H_

#include <memory>
#include <string>

#include "crypto/cipher.h"
#include "env/env.h"
#include "env/io_stats.h"
#include "kds/dek.h"
#include "lsm/options.h"
#include "shield/dek_manager.h"
#include "util/statistics.h"
#include "util/thread_pool.h"

namespace shield {

/// SHIELD places a 64-byte plaintext header at the start of every data
/// file (WAL, SST, Manifest):
///   magic(8) | version(1) | cipher(1) | nonce_len(1) | reserved(1) |
///   dek_id(16) | nonce(<=16) | zero padding
/// The DEK-ID is deliberately plaintext: it is the paper's
/// metadata-embedded identifier that lets any authorized server resolve
/// the DEK from the KDS without central file->key mapping
/// (Section 5.4). All bytes after the header are encrypted with the
/// per-file DEK at logical offsets starting from zero.
///
/// Version negotiation: version 1 files carry CTR ciphertext only;
/// version 2 files additionally authenticate every SST block / log
/// record with a truncated HMAC-SHA256 tag, version 3 files with a
/// GHASH tag (crypto/block_auth.h). Readers accept all three — the
/// header version, not a config knob, decides which tags are expected,
/// so pre-tag and v2 files stay readable forever. New files are
/// written as version 3, or as version 1 with authenticate_blocks off.
constexpr uint64_t kShieldHeaderSize = 64;

/// CTR encryption only (pre-authentication format).
constexpr uint8_t kShieldFormatVersionBase = 1;
/// CTR encryption + per-block HMAC-SHA256 tags. Read, not written.
constexpr uint8_t kShieldFormatVersionHmac = 2;
/// CTR encryption + per-block GHASH tags.
constexpr uint8_t kShieldFormatVersionGhash = 3;

struct ShieldFileHeader {
  uint8_t version = kShieldFormatVersionBase;
  crypto::CipherKind cipher = crypto::CipherKind::kAes128Ctr;
  DekId dek_id;
  std::string nonce;
};

std::string EncodeShieldFileHeader(const ShieldFileHeader& header);
Status ParseShieldFileHeader(const Slice& data, ShieldFileHeader* header);

/// Replaces the DEK-ID in the plaintext header of a SHIELD file image
/// that ParseShieldFileHeader accepts. Ciphertext and block tags are
/// keyed from the key material and nonce, not the id, so a re-wrapped
/// DEK (a new id over the same key) needs nothing else patched.
void SetShieldFileDekId(const DekId& id, std::string* image);

/// True when `data` begins with the SHIELD file magic. Does NOT
/// validate the rest of the header: a magic-bearing file that fails
/// ParseShieldFileHeader is corrupt, not plaintext.
bool LooksLikeShieldFile(const Slice& data);

/// Reads and parses the header of an on-disk SHIELD file.
Status ReadShieldFileHeader(Env* env, const std::string& fname,
                            ShieldFileHeader* header);

/// Creates data files for the LSM engine, applying the configured
/// encryption. All readers/writers expose the *logical* (plaintext)
/// byte space; encryption headers and transforms are invisible above
/// this interface.
class DataFileFactory {
 public:
  virtual ~DataFileFactory() = default;

  /// `kind` selects per-kind encryption behaviour (WAL buffering vs
  /// SST chunked encryption).
  virtual Status NewWritableFile(const std::string& fname, FileKind kind,
                                 std::unique_ptr<WritableFile>* out) = 0;
  virtual Status NewRandomAccessFile(
      const std::string& fname, std::unique_ptr<RandomAccessFile>* out) = 0;
  virtual Status NewSequentialFile(const std::string& fname,
                                   std::unique_ptr<SequentialFile>* out) = 0;

  /// Deletes a data file, releasing any encryption state bound to it
  /// (SHIELD destroys the file's DEK — the compromise window for a
  /// rotated-away key ends here).
  virtual Status DeleteFile(const std::string& fname) = 0;

  virtual Env* env() const = 0;
};

/// Factory for unencrypted (or EncFS: transparently encrypted by the
/// Env itself) deployments.
std::unique_ptr<DataFileFactory> NewPlainFileFactory(Env* env);

/// Factory implementing SHIELD's embedded encryption. `dek_manager`
/// must outlive the factory; `encryption_pool` may be null when
/// opts.encryption_threads <= 1. `stats` (optional, must outlive the
/// factory and every file it creates) receives crypto.* and shield.*
/// tickers for all encrypt/decrypt traffic.
std::unique_ptr<DataFileFactory> NewShieldFileFactory(
    Env* env, DekManager* dek_manager, const EncryptionOptions& opts,
    ThreadPool* encryption_pool, Statistics* stats = nullptr);

}  // namespace shield

#endif  // SHIELD_SHIELD_FILE_CRYPTO_H_
