#ifndef SHIELD_SHIELD_ENCRYPTED_FILE_H_
#define SHIELD_SHIELD_ENCRYPTED_FILE_H_

#include <memory>
#include <string>

#include "crypto/block_auth.h"
#include "crypto/cipher.h"
#include "env/env.h"
#include "env/io_stats.h"
#include "util/statistics.h"
#include "util/thread_pool.h"

namespace shield {

/// The encrypted-file core shared by both of the paper's designs. EncFS
/// (Section 4, encfs/encrypted_env.h) and SHIELD (Section 5,
/// shield/file_crypto.h) differ only in where a file's key comes from
/// (one instance DEK, or a per-file DEK named by a plaintext DEK-ID)
/// and in their header codec. Each resolves the key and parses its
/// header, then hands the result here; everything below the header
/// (CTR at logical offsets, the WAL buffer, the block authenticator,
/// crypto accounting) is this one module.
struct EncryptedFileParams {
  crypto::CipherKind cipher = crypto::CipherKind::kAes128Ctr;
  std::string key;    // CipherKeySize(cipher) bytes
  std::string nonce;  // CipherNonceSize(cipher) bytes, from the header
  /// Plaintext prologue ahead of logical byte 0 (4 KiB EncFS, 64 B
  /// SHIELD). Random-access reads skip it; sizes hide it.
  uint64_t header_size = 0;
  /// The MAC the header names. Unless kNone (format v1), every sealed
  /// unit (WritableFile::AppendSealed: an SST block, a WAL or manifest
  /// record) carries a tag over its ciphertext, formed here. Readers
  /// check it over the stored bytes before decrypting: Unseal for SST
  /// blocks, log::Reader through block_authenticator() for records.
  crypto::BlockMac mac = crypto::BlockMac::kNone;
};

/// The fail-closed rule both header codecs apply to their cipher
/// fields: the cipher byte must name a known cipher, the nonce length
/// must be that cipher's and, once the key that will open the file is
/// known (`key_cipher` non-null), the key must be for that same cipher.
/// Every violation is Corruption, never a best-effort acceptance: the
/// parsers also run on attacker-supplied bytes (backup restore,
/// external-SST ingest), and a wrong cipher would decrypt to garbage
/// with an OK status. A header parsed before its key is resolved (the
/// SHIELD DEK-ID) passes null here and is checked again with the key.
Status CheckHeaderCipher(uint8_t cipher_id, size_t nonce_len,
                         const crypto::CipherKind* key_cipher);

/// Reads the first `size` bytes of a file into `header`. Positional
/// reads retry a short or transient read a bounded number of times: a
/// torn header read must never decide that a file is corrupt or, for
/// SHIELD with encrypt_wal off, plaintext. A sequential file is read
/// until the header is complete or EOF and is left at the payload. A
/// file genuinely shorter than `size` yields a short `header` and OK;
/// the codec's parse then fails closed on it.
Status ReadFileHeader(RandomAccessFile* file, size_t size,
                      std::string* header);
Status ReadFileHeader(SequentialFile* file, size_t size, std::string* header);

/// Wraps `base`, whose header the caller has already appended, in a
/// writer that encrypts every appended byte at its logical offset.
/// Each encryption operation builds a fresh cipher context: that is
/// the per-operation initialization cost the paper measures (Section
/// 3.2). With `buffer_size` == 0 every Append is one operation. With
/// `buffer_size` > 0 plaintext accumulates in memory and is encrypted
/// in one operation when the buffer fills or on Sync/Close: the WAL
/// buffer of Section 5.3 for WALs (whose drains tick
/// shield.wal.buffer.drains) and SHIELD's SST chunks of Section 5.2.
/// `pool`/`threads` shard each operation through ChunkEncryptor.
/// `stats` (optional) must outlive the file.
Status NewEncryptedWritableFile(std::unique_ptr<WritableFile> base,
                                EncryptedFileParams params, FileKind kind,
                                size_t buffer_size, ThreadPool* pool,
                                int threads, Statistics* stats,
                                std::unique_ptr<WritableFile>* out);

/// Positional reads of the logical byte space of `base`. `pool`/
/// `threads` shard large reads (readahead spans, coalesced MultiGet
/// fetches): CTR is offset-addressable, so decryption shards like
/// encryption does.
Status NewEncryptedRandomAccessFile(std::unique_ptr<RandomAccessFile> base,
                                    const EncryptedFileParams& params,
                                    ThreadPool* pool, int threads,
                                    Statistics* stats,
                                    std::unique_ptr<RandomAccessFile>* out);

/// Sequential reads of `base`, which the caller has positioned at the
/// payload (see ReadFileHeader).
Status NewEncryptedSequentialFile(std::unique_ptr<SequentialFile> base,
                                  const EncryptedFileParams& params,
                                  Statistics* stats,
                                  std::unique_ptr<SequentialFile>* out);

}  // namespace shield

#endif  // SHIELD_SHIELD_ENCRYPTED_FILE_H_
