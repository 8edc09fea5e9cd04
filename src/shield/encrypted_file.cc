#include "shield/encrypted_file.h"

#include <cassert>
#include <cstring>
#include <vector>

#include "crypto/block_auth.h"
#include "shield/chunk_encryptor.h"
#include "util/clock.h"
#include "util/perf_context.h"
#include "util/trace.h"

namespace shield {

namespace {

// Accounts crypto traffic into the tickers and the calling thread's
// PerfContext at the single place where data files touch
// plaintext<->ciphertext.
void RecordCryptoBytes(Statistics* stats, crypto::CipherKind kind,
                       bool encrypt, uint64_t n) {
  if (n == 0) {
    return;
  }
  RecordTick(stats,
             encrypt ? Tickers::kCryptoBytesEncrypted
                     : Tickers::kCryptoBytesDecrypted,
             n);
  RecordTick(stats,
             kind == crypto::CipherKind::kChaCha20 ? Tickers::kCryptoChaCha20Bytes
                                                   : Tickers::kCryptoAesBytes,
             n);
  PerfAdd(encrypt ? &PerfContext::encrypt_bytes : &PerfContext::decrypt_bytes,
          n);
}

// Null (and OK) for v1 files. The MAC keys derive from the file key and
// nonce, so EncFS files sharing the instance key still get distinct
// MAC keys.
Status NewAuthenticator(const EncryptedFileParams& params, Statistics* stats,
                        std::unique_ptr<crypto::BlockAuthenticator>* out) {
  if (params.mac == crypto::BlockMac::kNone) {
    return Status::OK();
  }
  *out = crypto::NewBlockAuthenticator(params.mac, params.cipher, params.key,
                                       params.nonce);
  if (*out == nullptr) {
    return Status::InvalidArgument("cannot build block authenticator");
  }
  (*out)->SetStatisticsSink(stats);
  return Status::OK();
}

class EncryptedWritableFile final : public WritableFile {
 public:
  EncryptedWritableFile(std::unique_ptr<WritableFile> base,
                        EncryptedFileParams params, FileKind kind,
                        size_t buffer_size, ThreadPool* pool, int threads,
                        std::unique_ptr<crypto::BlockAuthenticator> auth,
                        Statistics* stats)
      : base_(std::move(base)),
        params_(std::move(params)),
        kind_(kind),
        buffer_size_(buffer_size),
        pool_(pool),
        threads_(threads),
        auth_(std::move(auth)),
        stats_(stats) {
    if (buffer_size_ > 0) {
      buffer_.reserve(buffer_size_);
    }
  }

  ~EncryptedWritableFile() override {
    if (!closed_) {
      Close();
    }
  }

  Status Append(const Slice& data) override {
    if (buffer_size_ == 0) {
      return EncryptAndAppend(data.data(), data.size());
    }
    buffer_.append(data.data(), data.size());
    if (buffer_.size() >= buffer_size_) {
      return DrainBuffer();
    }
    return Status::OK();
  }

  Status AppendSealed(const Slice& data, const Slice& trailer) override {
    const size_t start = buffer_.size();
    buffer_.append(data.data(), data.size());
    buffer_.append(trailer.data(), trailer.size());
    if (auth_ != nullptr) {
      // A zero placeholder for the tag: the drain encrypts it into the
      // keystream at the tag's offset, and XORing the tag into that
      // stores the tag encrypted in place.
      seals_.push_back({start, buffer_.size() - start});
      buffer_.append(crypto::kBlockAuthTagSize, '\0');
    }
    if (buffer_size_ > 0 && buffer_.size() < buffer_size_) {
      return Status::OK();
    }
    Status s = DrainBuffer();
    if (!s.ok() && buffer_size_ == 0) {
      // Unbuffered files keep no failed append for a retry, sealed or
      // not.
      buffer_.clear();
      seals_.clear();
    }
    return s;
  }

  Status Flush() override {
    // Deliberately does NOT drain the encryption buffer: draining on
    // every log-record flush would re-introduce the per-write
    // encryption cost the buffer exists to amortize. The paper's
    // trade-off (Section 5.3): buffered plaintext lives only in
    // process memory and is lost on an application crash; it is
    // encrypted before it ever reaches storage. Sync() and Close()
    // drain.
    return base_->Flush();
  }

  Status Sync() override {
    Status s = DrainBuffer();
    if (!s.ok()) {
      return s;
    }
    return base_->Sync();
  }

  Status Close() override {
    closed_ = true;
    Status s = DrainBuffer();
    Status c = base_->Close();
    return s.ok() ? c : s;
  }

  uint64_t GetFileSize() const override {
    return logical_offset_ + buffer_.size();
  }

  const crypto::BlockAuthenticator* block_authenticator() const override {
    return auth_.get();
  }

 private:
  Status DrainBuffer() {
    if (buffer_.empty()) {
      return Status::OK();
    }
    if (kind_ == FileKind::kWal && buffer_size_ > 0) {
      RecordTick(stats_, Tickers::kShieldWalBufferDrains, 1);
    }
    Status s = EncryptAndAppend(buffer_.data(), buffer_.size());
    if (s.ok()) {
      // Only on success: after a transient append failure the
      // plaintext stays buffered so a retried Sync can persist it
      // (logical_offset_ has not advanced, so ciphertext stays
      // aligned).
      buffer_.clear();
      seals_.clear();
    }
    return s;
  }

  // Encrypts and appends `data`, which is buffer_ when seals_ is not
  // empty: a direct unbuffered Append never has seals pending.
  Status EncryptAndAppend(const char* data, size_t n) {
    assert(seals_.empty() || data == buffer_.data());
    TraceSpan span(SpanType::kFileEncrypt);
    span.SetArgs(logical_offset_, n);
    span.SetAux(static_cast<uint8_t>(params_.cipher));
    // Fresh cipher context per encryption operation: this is the
    // "encryption initialization" cost the paper amortizes with the
    // WAL buffer. The key schedule and scratch allocation happen here,
    // every time.
    std::unique_ptr<crypto::StreamCipher> cipher;
    Status s = crypto::NewStreamCipher(params_.cipher, params_.key,
                                       params_.nonce, &cipher);
    if (s.ok()) {
      scratch_.assign(data, n);
      ChunkEncryptor encryptor(cipher.get(), pool_, threads_, stats_);
      // On cipher failure (e.g. ChaCha20 counter overflow) scratch_
      // may hold partially transformed bytes; never append them.
      s = encryptor.Encrypt(logical_offset_, scratch_.data(),
                            scratch_.size());
    }
    if (s.ok()) {
      RecordCryptoBytes(stats_, params_.cipher, /*encrypt=*/true, n);
      SealTags();
      s = base_->Append(scratch_);
    }
    if (s.ok()) {
      logical_offset_ += n;
    }
    span.MarkStatus(s);
    return s;
  }

  // MACs each sealed unit's ciphertext in scratch_, just produced by
  // the drain, and XORs the tag into the unit's encrypted placeholder.
  void SealTags() {
    for (const Seal& seal : seals_) {
      char tag[crypto::kBlockAuthTagSize];
      auth_->TagCiphertext(logical_offset_ + seal.start,
                           Slice(scratch_.data() + seal.start, seal.size),
                           tag);
      char* stored = scratch_.data() + seal.start + seal.size;
      for (size_t i = 0; i < sizeof(tag); i++) {
        stored[i] ^= tag[i];
      }
    }
  }

  // A sealed unit in buffer_, its tag placeholder right after it.
  struct Seal {
    size_t start;
    size_t size;
  };

  std::unique_ptr<WritableFile> base_;
  const EncryptedFileParams params_;
  const FileKind kind_;
  const size_t buffer_size_;
  ThreadPool* const pool_;
  const int threads_;
  const std::unique_ptr<crypto::BlockAuthenticator> auth_;
  Statistics* const stats_;

  std::string buffer_;   // plaintext, in memory only
  std::vector<Seal> seals_;  // sealed units in buffer_
  std::string scratch_;  // ciphertext staging
  uint64_t logical_offset_ = 0;  // encrypted-and-appended bytes
  bool closed_ = false;
};

// Read-side state of an open file: its cipher, built once at open (a
// read needs no fresh context: the paper's init cost is a write-path
// term), and its authenticator.
class FileDecryptor {
 public:
  static Status Open(const EncryptedFileParams& params, ThreadPool* pool,
                     int threads, Statistics* stats,
                     std::unique_ptr<FileDecryptor>* out) {
    std::unique_ptr<crypto::BlockAuthenticator> auth;
    Status s = NewAuthenticator(params, stats, &auth);
    if (!s.ok()) {
      return s;
    }
    std::unique_ptr<crypto::StreamCipher> cipher;
    s = crypto::NewStreamCipher(params.cipher, params.key, params.nonce,
                                &cipher);
    if (!s.ok()) {
      return s;
    }
    out->reset(new FileDecryptor(std::move(cipher), std::move(auth), pool,
                                 threads, stats));
    return Status::OK();
  }

  // Decrypts the `result` of a base read, logically at `offset`, into
  // `scratch` and points `result` there.
  Status Decrypt(uint64_t offset, Slice* result, char* scratch) const {
    // result may point at an internal buffer of the base file.
    if (result->data() != scratch && result->size() > 0) {
      memmove(scratch, result->data(), result->size());
    }
    Status s;
    {
      TraceSpan span(SpanType::kFileDecrypt);
      span.SetArgs(offset, result->size());
      span.SetAux(static_cast<uint8_t>(cipher_->kind()));
      PerfTimer timer(&GetPerfContext()->decrypt_micros);
      // CTR is an XOR stream: Encrypt *is* decrypt. Without a pool (or
      // for small reads) this is one synchronous CryptAt.
      s = chunks_.Encrypt(offset, scratch, result->size());
      span.MarkStatus(s);
    }
    if (!s.ok()) {
      return s;
    }
    RecordCryptoBytes(stats_, cipher_->kind(), /*encrypt=*/false,
                      result->size());
    *result = Slice(scratch, result->size());
    return Status::OK();
  }

  // RandomAccessFile::Unseal: the tag, decrypted at its offset, is
  // checked over the stored bytes before the unit is decrypted.
  Status Unseal(uint64_t offset, const Slice& stored, char* out,
                Slice* result) const {
    size_t n = stored.size();
    if (auth_ != nullptr) {
      if (n < crypto::kBlockAuthTagSize) {
        return Status::Corruption("sealed unit shorter than its tag");
      }
      n -= crypto::kBlockAuthTagSize;
      char tag[crypto::kBlockAuthTagSize];
      memcpy(tag, stored.data() + n, sizeof(tag));
      Status s = cipher_->CryptAt(offset + n, tag, sizeof(tag));
      if (!s.ok()) {
        return s;
      }
      if (!auth_->VerifyCiphertext(offset, Slice(stored.data(), n),
                                   Slice(tag, sizeof(tag)))) {
        return Status::Corruption("block authentication tag mismatch");
      }
    }
    *result = Slice(stored.data(), n);
    return Decrypt(offset, result, out);
  }

  const crypto::BlockAuthenticator* auth() const { return auth_.get(); }

 private:
  FileDecryptor(std::unique_ptr<crypto::StreamCipher> cipher,
                std::unique_ptr<crypto::BlockAuthenticator> auth,
                ThreadPool* pool, int threads, Statistics* stats)
      : cipher_(std::move(cipher)),
        auth_(std::move(auth)),
        chunks_(cipher_.get(), pool, threads, /*stats=*/nullptr),
        stats_(stats) {}

  const std::unique_ptr<crypto::StreamCipher> cipher_;
  const std::unique_ptr<crypto::BlockAuthenticator> auth_;
  const ChunkEncryptor chunks_;
  Statistics* const stats_;
};

class EncryptedRandomAccessFile final : public RandomAccessFile {
 public:
  EncryptedRandomAccessFile(std::unique_ptr<RandomAccessFile> base,
                            uint64_t header_size,
                            std::unique_ptr<FileDecryptor> decryptor)
      : base_(std::move(base)),
        header_size_(header_size),
        decryptor_(std::move(decryptor)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    Status s = ReadStored(offset, n, result, scratch);
    if (!s.ok()) {
      return s;
    }
    return decryptor_->Decrypt(offset, result, scratch);
  }

  Status ReadStored(uint64_t offset, size_t n, Slice* result,
                    char* scratch) const override {
    return base_->Read(offset + header_size_, n, result, scratch);
  }

  Status Unseal(uint64_t offset, const Slice& stored, char* out,
                Slice* result) const override {
    return decryptor_->Unseal(offset, stored, out, result);
  }

  Status Decrypt(uint64_t offset, Slice* result,
                 char* scratch) const override {
    return decryptor_->Decrypt(offset, result, scratch);
  }

  Status Size(uint64_t* size) const override {
    Status s = base_->Size(size);
    if (s.ok()) {
      *size = *size >= header_size_ ? *size - header_size_ : 0;
    }
    return s;
  }

  const crypto::BlockAuthenticator* block_authenticator() const override {
    return decryptor_->auth();
  }

 private:
  const std::unique_ptr<RandomAccessFile> base_;
  const uint64_t header_size_;
  const std::unique_ptr<FileDecryptor> decryptor_;
};

class EncryptedSequentialFile final : public SequentialFile {
 public:
  EncryptedSequentialFile(std::unique_ptr<SequentialFile> base,
                          std::unique_ptr<FileDecryptor> decryptor)
      : base_(std::move(base)), decryptor_(std::move(decryptor)) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    const uint64_t offset = logical_offset_;
    Status s = ReadStored(n, result, scratch);
    return s.ok() ? Decrypt(offset, result, scratch) : s;
  }

  Status ReadStored(size_t n, Slice* result, char* scratch) override {
    Status s = base_->Read(n, result, scratch);
    if (s.ok()) {
      logical_offset_ += result->size();
    }
    return s;
  }

  Status Decrypt(uint64_t offset, Slice* result,
                 char* scratch) const override {
    return decryptor_->Decrypt(offset, result, scratch);
  }

  Status Skip(uint64_t n) override {
    logical_offset_ += n;
    return base_->Skip(n);
  }

  const crypto::BlockAuthenticator* block_authenticator() const override {
    return decryptor_->auth();
  }

 private:
  const std::unique_ptr<SequentialFile> base_;
  const std::unique_ptr<FileDecryptor> decryptor_;
  uint64_t logical_offset_ = 0;
};

}  // namespace

Status CheckHeaderCipher(uint8_t cipher_id, size_t nonce_len,
                         const crypto::CipherKind* key_cipher) {
  if (cipher_id != static_cast<uint8_t>(crypto::CipherKind::kAes128Ctr) &&
      cipher_id != static_cast<uint8_t>(crypto::CipherKind::kAes256Ctr) &&
      cipher_id != static_cast<uint8_t>(crypto::CipherKind::kChaCha20)) {
    return Status::Corruption("unknown cipher id in file header");
  }
  const auto cipher = static_cast<crypto::CipherKind>(cipher_id);
  if (nonce_len != crypto::CipherNonceSize(cipher)) {
    return Status::Corruption("file header nonce length does not match "
                              "its cipher");
  }
  if (key_cipher != nullptr && *key_cipher != cipher) {
    return Status::Corruption("file key cipher mismatch with file header");
  }
  return Status::OK();
}

Status ReadFileHeader(RandomAccessFile* file, size_t size,
                      std::string* header) {
  // Files genuinely shorter than a header return the same short result
  // every attempt and fall through to the parse unchanged.
  constexpr int kMaxAttempts = 5;
  std::string scratch(size, '\0');
  for (int attempt = 1;; attempt++) {
    Slice data;
    Status s = file->Read(0, size, &data, scratch.data());
    const bool complete = s.ok() && data.size() == size;
    if (!complete && attempt < kMaxAttempts && (s.ok() || s.IsTransient())) {
      SleepForMicros(100ull << attempt);
      continue;
    }
    if (s.ok()) {
      header->assign(data.data(), data.size());
    }
    return s;
  }
}

Status ReadFileHeader(SequentialFile* file, size_t size, std::string* header) {
  std::string scratch(size, '\0');
  header->clear();
  while (header->size() < size) {
    Slice got;
    Status s = file->Read(size - header->size(), &got, scratch.data());
    if (!s.ok()) {
      return s;
    }
    if (got.empty()) {
      break;  // EOF: a short header
    }
    header->append(got.data(), got.size());
  }
  return Status::OK();
}

Status NewEncryptedWritableFile(std::unique_ptr<WritableFile> base,
                                EncryptedFileParams params, FileKind kind,
                                size_t buffer_size, ThreadPool* pool,
                                int threads, Statistics* stats,
                                std::unique_ptr<WritableFile>* out) {
  std::unique_ptr<crypto::BlockAuthenticator> auth;
  Status s = NewAuthenticator(params, stats, &auth);
  if (!s.ok()) {
    return s;
  }
  *out = std::make_unique<EncryptedWritableFile>(
      std::move(base), std::move(params), kind, buffer_size, pool, threads,
      std::move(auth), stats);
  return Status::OK();
}

Status NewEncryptedRandomAccessFile(std::unique_ptr<RandomAccessFile> base,
                                    const EncryptedFileParams& params,
                                    ThreadPool* pool, int threads,
                                    Statistics* stats,
                                    std::unique_ptr<RandomAccessFile>* out) {
  std::unique_ptr<FileDecryptor> decryptor;
  Status s = FileDecryptor::Open(params, pool, threads, stats, &decryptor);
  if (!s.ok()) {
    return s;
  }
  *out = std::make_unique<EncryptedRandomAccessFile>(
      std::move(base), params.header_size, std::move(decryptor));
  return Status::OK();
}

Status NewEncryptedSequentialFile(std::unique_ptr<SequentialFile> base,
                                  const EncryptedFileParams& params,
                                  Statistics* stats,
                                  std::unique_ptr<SequentialFile>* out) {
  std::unique_ptr<FileDecryptor> decryptor;
  Status s = FileDecryptor::Open(params, /*pool=*/nullptr, /*threads=*/1,
                                 stats, &decryptor);
  if (!s.ok()) {
    return s;
  }
  *out = std::make_unique<EncryptedSequentialFile>(std::move(base),
                                                   std::move(decryptor));
  return Status::OK();
}

}  // namespace shield
