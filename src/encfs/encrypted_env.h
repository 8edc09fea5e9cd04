#ifndef SHIELD_ENCFS_ENCRYPTED_ENV_H_
#define SHIELD_ENCFS_ENCRYPTED_ENV_H_

#include <memory>
#include <string>

#include "crypto/cipher.h"
#include "env/env.h"
#include "util/statistics.h"

namespace shield {

/// EncFS — the paper's instance-level encryption design (Section 4).
///
/// A transparent Env wrapper: every file written through it is
/// encrypted with a single instance-wide DEK supplied at startup, and
/// decrypted on read. The LSM-KVS core is completely unaware of the
/// encryption ("non-intrusive"); suitable for monolithic deployments
/// where the server is fully controlled.
///
/// Each file begins with a 4 KiB header (magic, cipher kind, per-file
/// random nonce); the rest of the file is the CTR-encrypted payload at
/// logical offsets starting from 0. Using a random nonce per file keeps
/// keystream reuse away even though the DEK is shared — this mirrors
/// RocksDB's EncryptedEnv block-alignment prologue.
///
/// Trade-offs (paper Section 4.2): one DEK for everything, so no
/// per-file compromise isolation and no cheap rotation; rotating the
/// key means re-encrypting the entire store.
///
/// The returned Env does not own `base_env`; `instance_key` must be a
/// valid key for `cipher`.
///
/// `wal_buffer_size`: when > 0, WAL files (*.log) written through this
/// Env buffer plaintext in memory and encrypt + append only when the
/// buffer fills or on Sync/Close — the paper's WAL-Buf optimization
/// applied to the instance-level design. 0 encrypts every append
/// individually (paying fresh per-operation cipher initialization,
/// the Section 3.2 bottleneck).
///
/// `authenticate_blocks`: when true, new files are written in format v2
/// ("SHENCFS2"): their WritableFile exposes a BlockAuthenticator so
/// sst_builder/log_writer append truncated HMAC-SHA256 tags over each
/// encrypted block/record (encrypt-then-MAC). Readers auto-detect the
/// format from the per-file magic, so v1 and v2 files coexist.
///
/// `stats` (optional; must outlive the Env and every file it opens)
/// receives crypto.bytes.encrypted/decrypted and per-cipher tickers,
/// and the encrypted-file core's shield.wal.buffer.drains and
/// shield.chunk.encrypt.shards (shield/encrypted_file.h).
Status NewEncryptedEnv(Env* base_env, crypto::CipherKind cipher,
                       const std::string& instance_key,
                       std::unique_ptr<Env>* out,
                       size_t wal_buffer_size = 0,
                       bool authenticate_blocks = true,
                       Statistics* stats = nullptr);

/// Size of the plaintext prologue EncFS places at the head of each
/// file. Exposed for tests.
constexpr uint64_t kEncFsHeaderSize = 4096;

}  // namespace shield

#endif  // SHIELD_ENCFS_ENCRYPTED_ENV_H_
