#ifndef SHIELD_ENV_ENV_H_
#define SHIELD_ENV_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/clock.h"
#include "util/slice.h"
#include "util/status.h"

namespace shield {

namespace crypto {
class BlockAuthenticator;  // crypto/block_auth.h
}  // namespace crypto

/// A file read sequentially from the beginning (WAL/manifest replay).
class SequentialFile {
 public:
  virtual ~SequentialFile() = default;

  /// Reads up to `n` bytes. `scratch` must have room for `n` bytes;
  /// `*result` points either into scratch or into an internal buffer.
  /// A short read (including empty) with OK status signals EOF.
  virtual Status Read(size_t n, Slice* result, char* scratch) = 0;

  virtual Status Skip(uint64_t n) = 0;

  /// Non-null when every sealed unit (WritableFile::AppendSealed: an
  /// SST block, a log record) is followed by its tag (SHIELD/EncFS
  /// format v2 or v3). The authenticator is owned by the file and valid
  /// for its lifetime. Encrypting files are not always the outermost
  /// layer: a wrapper that may sit above one must forward this and the
  /// stored-image and sealed-unit calls, as the SST readahead wrapper
  /// (env/readahead_file.h) does.
  virtual const crypto::BlockAuthenticator* block_authenticator() const {
    return nullptr;
  }

  /// Read(), but of the stored image: for an encrypting file the
  /// ciphertext (the header is still skipped).
  virtual Status ReadStored(size_t n, Slice* result, char* scratch) {
    return Read(n, result, scratch);
  }

  /// Turns `*result`, stored bytes ReadStored returned for logical
  /// `offset`, into what Read() would have returned: decrypted into
  /// `scratch` (room for result->size() bytes) by an encrypting file,
  /// left as is by one that stores plaintext. The default serves the
  /// latter and fails closed for a wrapper that forwards
  /// block_authenticator() but not this.
  virtual Status Decrypt(uint64_t offset, Slice* result, char* scratch) const;
};

/// A file supporting positional reads (SST block fetches).
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  virtual Status Read(uint64_t offset, size_t n, Slice* result,
                      char* scratch) const = 0;

  virtual Status Size(uint64_t* size) const = 0;

  /// See SequentialFile::block_authenticator(); non-null means every
  /// sealed unit (an SST block) is followed by its tag.
  virtual const crypto::BlockAuthenticator* block_authenticator() const {
    return nullptr;
  }

  /// Reads the stored image of [offset, offset + n): for an encrypting
  /// file the ciphertext at those logical offsets (the header is still
  /// skipped), for any other file what Read() returns.
  virtual Status ReadStored(uint64_t offset, size_t n, Slice* result,
                            char* scratch) const {
    return Read(offset, n, result, scratch);
  }

  /// Opens one sealed unit (see WritableFile::AppendSealed) whose stored
  /// image, read by ReadStored at logical `offset`, is `stored`: the
  /// unit's bytes followed, when block_authenticator() is non-null, by
  /// its tag. Checks the tag over the stored bytes before decrypting
  /// anything, then decrypts the unit once. `*result` is the plaintext
  /// unit, in `out` (room for the unit's bytes; may be stored.data())
  /// or, for a file that stores plaintext, in `stored` itself. A tag
  /// mismatch is Corruption. The default serves files
  /// that store plaintext and fails closed for a wrapper that forwards
  /// block_authenticator() but not this.
  virtual Status Unseal(uint64_t offset, const Slice& stored, char* out,
                        Slice* result) const;

  /// Turns `*result`, stored bytes that ReadStored returned for logical
  /// `offset` and that belong to no sealed unit (an SST footer), into
  /// what Read() would have returned for the same range: decrypted into
  /// `scratch` (room for result->size() bytes) for an encrypting file,
  /// left as is for a file that stores plaintext. The default serves
  /// the latter and fails closed for a wrapper that forwards
  /// block_authenticator() but not this.
  virtual Status Decrypt(uint64_t offset, Slice* result, char* scratch) const;
};

/// An append-only writable file (WAL, SST, manifest).
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  virtual Status Append(const Slice& data) = 0;
  /// Pushes application buffers to the OS (no durability guarantee).
  virtual Status Flush() = 0;
  /// Durably persists all appended data.
  virtual Status Sync() = 0;
  virtual Status Close() = 0;

  /// Bytes appended so far (the logical write offset).
  virtual uint64_t GetFileSize() const = 0;

  /// See SequentialFile::block_authenticator(); non-null means
  /// AppendSealed appends a tag.
  virtual const crypto::BlockAuthenticator* block_authenticator() const {
    return nullptr;
  }

  /// Appends `data` then `trailer` (an SST block and its trailer, or a
  /// log record's header|payload and no trailer) as one sealed unit. An
  /// encrypting file encrypts the unit and, when block_authenticator()
  /// is non-null, follows it with a kBlockAuthTagSize-byte tag over the
  /// unit's ciphertext, stored encrypted at its own offset. The default
  /// serves files that store plaintext and fails closed for a wrapper
  /// that forwards block_authenticator() but not this.
  virtual Status AppendSealed(const Slice& data, const Slice& trailer);
};

/// Env abstracts the storage system underneath the LSM engine, in the
/// style of rocksdb::Env. Implementations: PosixEnv (local disk),
/// MemEnv (tests), EncryptedEnv (the paper's instance-level EncFS
/// design), RemoteEnv (simulated disaggregated storage).
class Env {
 public:
  virtual ~Env() = default;

  /// The process-wide local-disk environment (never deleted).
  static Env* Default();

  /// The time source used by everything running on top of this Env.
  /// Defaults to the process clock (SystemClock()), which is the real
  /// steady clock unless the deterministic simulator has installed a
  /// virtual one. Wrappers forward to their target so the clock is
  /// decided once, at the bottom of the env stack.
  virtual Clock* clock() { return SystemClock(); }

  virtual Status NewSequentialFile(const std::string& fname,
                                   std::unique_ptr<SequentialFile>* result) = 0;
  virtual Status NewRandomAccessFile(
      const std::string& fname, std::unique_ptr<RandomAccessFile>* result) = 0;
  virtual Status NewWritableFile(const std::string& fname,
                                 std::unique_ptr<WritableFile>* result) = 0;

  virtual bool FileExists(const std::string& fname) = 0;
  /// Lists the plain names (not paths) of entries in `dir`.
  virtual Status GetChildren(const std::string& dir,
                             std::vector<std::string>* result) = 0;
  virtual Status RemoveFile(const std::string& fname) = 0;
  virtual Status CreateDirIfMissing(const std::string& dirname) = 0;
  virtual Status RemoveDir(const std::string& dirname) = 0;
  virtual Status GetFileSize(const std::string& fname, uint64_t* size) = 0;
  virtual Status RenameFile(const std::string& src,
                            const std::string& target) = 0;
};

/// Forwards all calls to a wrapped Env; subclass and override what you
/// need (EncryptedEnv, RemoteEnv, counting wrappers).
class EnvWrapper : public Env {
 public:
  explicit EnvWrapper(Env* target) : target_(target) {}

  Env* target() const { return target_; }

  Clock* clock() override { return target_->clock(); }

  Status NewSequentialFile(const std::string& f,
                           std::unique_ptr<SequentialFile>* r) override {
    return target_->NewSequentialFile(f, r);
  }
  Status NewRandomAccessFile(const std::string& f,
                             std::unique_ptr<RandomAccessFile>* r) override {
    return target_->NewRandomAccessFile(f, r);
  }
  Status NewWritableFile(const std::string& f,
                         std::unique_ptr<WritableFile>* r) override {
    return target_->NewWritableFile(f, r);
  }
  bool FileExists(const std::string& f) override {
    return target_->FileExists(f);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* r) override {
    return target_->GetChildren(dir, r);
  }
  Status RemoveFile(const std::string& f) override {
    return target_->RemoveFile(f);
  }
  Status CreateDirIfMissing(const std::string& d) override {
    return target_->CreateDirIfMissing(d);
  }
  Status RemoveDir(const std::string& d) override {
    return target_->RemoveDir(d);
  }
  Status GetFileSize(const std::string& f, uint64_t* size) override {
    return target_->GetFileSize(f, size);
  }
  Status RenameFile(const std::string& s, const std::string& t) override {
    return target_->RenameFile(s, t);
  }

 private:
  Env* target_;
};

/// Creates a fresh in-memory Env. The caller owns the result. All state
/// lives in process memory; useful for tests and as the backing store
/// of the simulated disaggregated storage service.
std::unique_ptr<Env> NewMemEnv();

// --- Convenience helpers (env.cc) ---

Status WriteStringToFile(Env* env, const Slice& data, const std::string& fname,
                         bool sync);
/// Replaces `fname` with `data` atomically: writes and syncs `tmp`, then
/// renames it over `fname`, so a reader sees the old contents or the
/// new, never a torn file. `tmp` is removed on any failure.
Status ReplaceFileAtomically(Env* env, const Slice& data,
                             const std::string& tmp, const std::string& fname);
Status ReadFileToString(Env* env, const std::string& fname, std::string* data);

}  // namespace shield

#endif  // SHIELD_ENV_ENV_H_
