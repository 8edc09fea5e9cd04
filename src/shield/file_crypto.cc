#include "shield/file_crypto.h"

#include <cstring>

#include "crypto/block_auth.h"
#include "crypto/secure_random.h"
#include "shield/chunk_encryptor.h"
#include "util/clock.h"
#include "util/perf_context.h"
#include "util/trace.h"

namespace shield {

namespace {
constexpr char kMagic[8] = {'S', 'H', 'L', 'D', 'F', 'I', 'L', '1'};

// A file that *starts* with the SHIELD magic is claimed by SHIELD: a
// later parse failure in such a file must surface as corruption, never
// demote the file to the plaintext fallback (which would hand
// attacker-shaped ciphertext to the plaintext read path).
bool HasShieldMagic(const Slice& data) {
  return data.size() >= sizeof(kMagic) &&
         memcmp(data.data(), kMagic, sizeof(kMagic)) == 0;
}

// Accounts crypto traffic into the global tickers and the calling
// thread's PerfContext at the single place where SHIELD files touch
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
}  // namespace

std::string EncodeShieldFileHeader(const ShieldFileHeader& header) {
  std::string out(kShieldHeaderSize, '\0');
  memcpy(out.data(), kMagic, sizeof(kMagic));
  out[8] = static_cast<char>(header.version);
  out[9] = static_cast<char>(header.cipher);
  out[10] = static_cast<char>(header.nonce.size());
  out[11] = 0;  // reserved
  memcpy(out.data() + 12, header.dek_id.bytes.data(), DekId::kSize);
  memcpy(out.data() + 12 + DekId::kSize, header.nonce.data(),
         header.nonce.size());
  return out;
}

Status ParseShieldFileHeader(const Slice& data, ShieldFileHeader* header) {
  // Fail closed on every malformation: this parser also runs on
  // attacker-supplied bytes (backup restore, external-SST ingest), so
  // a header that is not exactly what the encoder emits is Corruption,
  // never a best-effort acceptance.
  if (data.size() < sizeof(kMagic) ||
      memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("not a SHIELD data file");
  }
  if (data.size() < kShieldHeaderSize) {
    return Status::Corruption("truncated SHIELD file header");
  }
  const uint8_t version = static_cast<uint8_t>(data[8]);
  if (version != kShieldFormatVersionBase &&
      version != kShieldFormatVersionAuth) {
    return Status::NotSupported("unknown SHIELD file version");
  }
  const uint8_t cipher_id = static_cast<uint8_t>(data[9]);
  if (cipher_id != static_cast<uint8_t>(crypto::CipherKind::kAes128Ctr) &&
      cipher_id != static_cast<uint8_t>(crypto::CipherKind::kAes256Ctr) &&
      cipher_id != static_cast<uint8_t>(crypto::CipherKind::kChaCha20)) {
    return Status::Corruption("unknown SHIELD header cipher id");
  }
  const auto cipher = static_cast<crypto::CipherKind>(cipher_id);
  if (data[11] != 0) {
    return Status::Corruption("nonzero reserved byte in SHIELD header");
  }
  const size_t nonce_len = static_cast<uint8_t>(data[10]);
  if (nonce_len > 16 || nonce_len != crypto::CipherNonceSize(cipher)) {
    return Status::Corruption("bad SHIELD header nonce length");
  }
  header->version = version;
  header->cipher = cipher;
  header->dek_id = DekId::FromSlice(Slice(data.data() + 12, DekId::kSize));
  header->nonce.assign(data.data() + 12 + DekId::kSize, nonce_len);
  return Status::OK();
}

// Bounded retry for the fixed-size header read at file open. A torn or
// transient short read here is dangerous beyond a failed open: with
// encrypt_wal off, a failed header parse classifies the file as
// plaintext, so a flaky read must never be what makes that call. Files
// genuinely shorter than a header return the same short result every
// attempt and fall through to the parse unchanged.
static Status ReadHeaderRetrying(RandomAccessFile* file, Slice* data,
                                 char* scratch) {
  constexpr int kMaxAttempts = 5;
  Status s;
  for (int attempt = 1;; attempt++) {
    s = file->Read(0, kShieldHeaderSize, data, scratch);
    if (s.ok() && data->size() == kShieldHeaderSize) {
      return s;
    }
    if (attempt < kMaxAttempts && (s.ok() || s.IsTransient())) {
      SleepForMicros(100ull << attempt);
      continue;
    }
    return s;
  }
}

bool LooksLikeShieldFile(const Slice& data) { return HasShieldMagic(data); }

Status ReadShieldFileHeader(Env* env, const std::string& fname,
                            ShieldFileHeader* header) {
  std::unique_ptr<RandomAccessFile> file;
  Status s = env->NewRandomAccessFile(fname, &file);
  if (!s.ok()) {
    return s;
  }
  char scratch[kShieldHeaderSize];
  Slice data;
  s = ReadHeaderRetrying(file.get(), &data, scratch);
  if (!s.ok()) {
    return s;
  }
  return ParseShieldFileHeader(data, header);
}

namespace {

// --- Plain factory -------------------------------------------------

class PlainFileFactory final : public DataFileFactory {
 public:
  explicit PlainFileFactory(Env* env) : env_(env) {}

  Status NewWritableFile(const std::string& fname, FileKind /*kind*/,
                         std::unique_ptr<WritableFile>* out) override {
    return env_->NewWritableFile(fname, out);
  }
  Status NewRandomAccessFile(const std::string& fname,
                             std::unique_ptr<RandomAccessFile>* out) override {
    return env_->NewRandomAccessFile(fname, out);
  }
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* out) override {
    return env_->NewSequentialFile(fname, out);
  }
  Status DeleteFile(const std::string& fname) override {
    return env_->RemoveFile(fname);
  }
  Env* env() const override { return env_; }

 private:
  Env* env_;
};

// --- SHIELD writable file ------------------------------------------

// Encrypts appended data with a per-file DEK. Two regimes, both from
// the paper:
//  * buffer_size == 0: every Append is encrypted individually (each
//    encryption pays fresh cipher initialization — the WAL bottleneck
//    of Section 3.2).
//  * buffer_size > 0: the application-managed buffer of Section 5.3.
//    Appends accumulate in plaintext in memory; once the buffer
//    reaches the threshold it is encrypted in one operation and
//    appended. A crash loses only the un-persisted buffered tail,
//    never plaintext on disk.
// Cipher initialization is performed per encryption operation (not
// once per file) to model the repeated-initialization cost the paper
// measures; see DESIGN.md.
class ShieldWritableFile final : public WritableFile {
 public:
  ShieldWritableFile(std::unique_ptr<WritableFile> base, Dek dek,
                     std::string nonce, size_t buffer_size,
                     ThreadPool* encryption_pool, int encryption_threads,
                     std::unique_ptr<crypto::BlockAuthenticator> auth,
                     FileKind kind, Statistics* stats)
      : base_(std::move(base)),
        dek_(std::move(dek)),
        nonce_(std::move(nonce)),
        buffer_size_(buffer_size),
        encryption_pool_(encryption_pool),
        encryption_threads_(encryption_threads),
        auth_(std::move(auth)),
        kind_(kind),
        stats_(stats) {
    if (buffer_size_ > 0) {
      buffer_.reserve(buffer_size_);
    }
  }

  ~ShieldWritableFile() override {
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
    if (kind_ == FileKind::kWal) {
      RecordTick(stats_, Tickers::kShieldWalBufferDrains, 1);
    }
    Status s = EncryptAndAppend(buffer_.data(), buffer_.size());
    if (s.ok()) {
      // Only on success: after a transient append failure the
      // plaintext stays buffered so a retried Sync can persist it
      // (logical_offset_ has not advanced, so ciphertext stays
      // aligned).
      buffer_.clear();
    }
    return s;
  }

  Status EncryptAndAppend(const char* data, size_t n) {
    TraceSpan span(SpanType::kFileEncrypt);
    span.SetArgs(logical_offset_, n);
    span.SetAux(static_cast<uint8_t>(dek_.cipher));
    // Fresh cipher context per encryption operation: this is the
    // "encryption initialization" cost the paper amortizes with the
    // WAL buffer. The key schedule and scratch allocation happen here,
    // every time.
    std::unique_ptr<crypto::StreamCipher> cipher;
    Status s = crypto::NewStreamCipher(dek_.cipher, dek_.key, nonce_, &cipher);
    if (!s.ok()) {
      return s;
    }
    scratch_.assign(data, n);
    ChunkEncryptor encryptor(cipher.get(), encryption_pool_,
                             encryption_threads_, stats_);
    s = encryptor.Encrypt(logical_offset_, scratch_.data(), scratch_.size());
    if (!s.ok()) {
      // Cipher failure (e.g. ChaCha20 counter overflow): scratch_ may
      // hold partially transformed bytes; never append them.
      span.SetError();
      return s;
    }
    RecordCryptoBytes(stats_, dek_.cipher, /*encrypt=*/true, n);
    s = base_->Append(scratch_);
    if (s.ok()) {
      logical_offset_ += n;
    }
    span.MarkStatus(s);
    return s;
  }

  std::unique_ptr<WritableFile> base_;
  const Dek dek_;
  const std::string nonce_;
  const size_t buffer_size_;
  ThreadPool* const encryption_pool_;
  const int encryption_threads_;
  const std::unique_ptr<crypto::BlockAuthenticator> auth_;
  const FileKind kind_;
  Statistics* const stats_;

  std::string buffer_;   // plaintext, in memory only
  std::string scratch_;  // ciphertext staging
  uint64_t logical_offset_ = 0;  // encrypted-and-appended bytes
  bool closed_ = false;
};

// --- SHIELD readable files ------------------------------------------

class ShieldRandomAccessFile final : public RandomAccessFile {
 public:
  /// `pool`/`threads` enable multi-threaded decryption of large reads
  /// (readahead spans, coalesced MultiGet fetches): CTR keystreams are
  /// offset-addressable, so the same sharding that parallelizes
  /// compaction encryption applies symmetrically to decryption.
  ShieldRandomAccessFile(std::unique_ptr<RandomAccessFile> base,
                         std::unique_ptr<crypto::StreamCipher> cipher,
                         std::unique_ptr<crypto::BlockAuthenticator> auth,
                         ThreadPool* pool, int threads, Statistics* stats)
      : base_(std::move(base)),
        cipher_(std::move(cipher)),
        auth_(std::move(auth)),
        decryptor_(cipher_.get(), pool, threads, /*stats=*/nullptr),
        stats_(stats) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    Status s = base_->Read(offset + kShieldHeaderSize, n, result, scratch);
    if (!s.ok()) {
      return s;
    }
    if (result->data() != scratch && result->size() > 0) {
      memmove(scratch, result->data(), result->size());
    }
    {
      TraceSpan span(SpanType::kFileDecrypt);
      span.SetArgs(offset, result->size());
      span.SetAux(static_cast<uint8_t>(cipher_->kind()));
      PerfTimer timer(&GetPerfContext()->decrypt_micros);
      // CTR is an XOR stream: Encrypt *is* decrypt. The chunk
      // decryptor falls back to a single synchronous CryptAt for
      // small reads.
      s = decryptor_.Encrypt(offset, scratch, result->size());
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

  Status Size(uint64_t* size) const override {
    Status s = base_->Size(size);
    if (s.ok()) {
      *size = *size >= kShieldHeaderSize ? *size - kShieldHeaderSize : 0;
    }
    return s;
  }

  const crypto::BlockAuthenticator* block_authenticator() const override {
    return auth_.get();
  }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  std::unique_ptr<crypto::StreamCipher> cipher_;
  std::unique_ptr<crypto::BlockAuthenticator> auth_;
  ChunkEncryptor decryptor_;
  Statistics* const stats_;
};

class ShieldSequentialFile final : public SequentialFile {
 public:
  ShieldSequentialFile(std::unique_ptr<SequentialFile> base,
                       std::unique_ptr<crypto::StreamCipher> cipher,
                       std::unique_ptr<crypto::BlockAuthenticator> auth,
                       Statistics* stats)
      : base_(std::move(base)),
        cipher_(std::move(cipher)),
        auth_(std::move(auth)),
        stats_(stats) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    Status s = base_->Read(n, result, scratch);
    if (!s.ok()) {
      return s;
    }
    if (result->data() != scratch && result->size() > 0) {
      memmove(scratch, result->data(), result->size());
    }
    {
      TraceSpan span(SpanType::kFileDecrypt);
      span.SetArgs(logical_offset_, result->size());
      span.SetAux(static_cast<uint8_t>(cipher_->kind()));
      PerfTimer timer(&GetPerfContext()->decrypt_micros);
      s = cipher_->CryptAt(logical_offset_, scratch, result->size());
      span.MarkStatus(s);
    }
    if (!s.ok()) {
      return s;
    }
    RecordCryptoBytes(stats_, cipher_->kind(), /*encrypt=*/false,
                      result->size());
    *result = Slice(scratch, result->size());
    logical_offset_ += result->size();
    return Status::OK();
  }

  Status Skip(uint64_t n) override {
    logical_offset_ += n;
    return base_->Skip(n);
  }

  const crypto::BlockAuthenticator* block_authenticator() const override {
    return auth_.get();
  }

 private:
  std::unique_ptr<SequentialFile> base_;
  std::unique_ptr<crypto::StreamCipher> cipher_;
  std::unique_ptr<crypto::BlockAuthenticator> auth_;
  Statistics* const stats_;
  uint64_t logical_offset_ = 0;
};

// --- SHIELD factory --------------------------------------------------

class ShieldFileFactory final : public DataFileFactory {
 public:
  ShieldFileFactory(Env* env, DekManager* dek_manager,
                    const EncryptionOptions& opts, ThreadPool* encryption_pool,
                    Statistics* stats)
      : env_(env),
        dek_manager_(dek_manager),
        opts_(opts),
        encryption_pool_(encryption_pool),
        stats_(stats) {}

  Status NewWritableFile(const std::string& fname, FileKind kind,
                         std::unique_ptr<WritableFile>* out) override {
    if (kind == FileKind::kWal && !opts_.encrypt_wal) {
      // Evaluation-only plaintext WAL (Table 2's "Encrypted SST" row).
      return env_->NewWritableFile(fname, out);
    }
    // Every new file gets a fresh DEK from the KDS (paper Section 5.2).
    Dek dek;
    Status s = dek_manager_->CreateDek(opts_.cipher, &dek);
    if (!s.ok()) {
      return s;
    }
    std::unique_ptr<WritableFile> base;
    s = env_->NewWritableFile(fname, &base);
    if (!s.ok()) {
      return s;
    }
    ShieldFileHeader header;
    header.version = opts_.authenticate_blocks ? kShieldFormatVersionAuth
                                               : kShieldFormatVersionBase;
    header.cipher = dek.cipher;
    header.dek_id = dek.id;
    header.nonce =
        crypto::SecureRandomString(crypto::CipherNonceSize(dek.cipher));
    s = base->Append(EncodeShieldFileHeader(header));
    if (!s.ok()) {
      return s;
    }
    std::unique_ptr<crypto::BlockAuthenticator> auth;
    if (header.version >= kShieldFormatVersionAuth) {
      auth = crypto::NewBlockAuthenticator(dek.cipher, dek.key, header.nonce);
      if (auth == nullptr) {
        return Status::InvalidArgument("cannot build block authenticator");
      }
      auth->SetStatisticsSink(stats_);
    }

    size_t buffer_size = 0;
    ThreadPool* pool = nullptr;
    int threads = 1;
    switch (kind) {
      case FileKind::kWal:
        // The application-managed WAL encryption buffer (Section 5.3).
        buffer_size = opts_.wal_buffer_size;
        break;
      case FileKind::kSst:
        // Chunked, optionally multi-threaded encryption (Section 5.2).
        buffer_size = opts_.sst_chunk_size;
        pool = encryption_pool_;
        threads = opts_.encryption_threads;
        break;
      case FileKind::kManifest:
      case FileKind::kOther:
        buffer_size = 0;  // infrequent appends; encrypt directly
        break;
    }
    *out = std::make_unique<ShieldWritableFile>(
        std::move(base), std::move(dek), std::move(header.nonce), buffer_size,
        pool, threads, std::move(auth), kind, stats_);
    return Status::OK();
  }

  Status NewRandomAccessFile(const std::string& fname,
                             std::unique_ptr<RandomAccessFile>* out) override {
    std::unique_ptr<RandomAccessFile> base;
    Status s = env_->NewRandomAccessFile(fname, &base);
    if (!s.ok()) {
      return s;
    }
    char scratch[kShieldHeaderSize];
    Slice header_data;
    s = ReadHeaderRetrying(base.get(), &header_data, scratch);
    if (!s.ok()) {
      return s;
    }
    ShieldFileHeader header;
    if (!ParseShieldFileHeader(header_data, &header).ok() &&
        !opts_.encrypt_wal && !HasShieldMagic(header_data)) {
      // Plaintext file written under the evaluation-only knob.
      *out = std::move(base);
      return Status::OK();
    }
    std::unique_ptr<crypto::StreamCipher> cipher;
    std::unique_ptr<crypto::BlockAuthenticator> auth;
    s = OpenCrypto(header_data, &cipher, &auth);
    if (!s.ok()) {
      return s;
    }
    *out = std::make_unique<ShieldRandomAccessFile>(
        std::move(base), std::move(cipher), std::move(auth), encryption_pool_,
        opts_.encryption_threads, stats_);
    return Status::OK();
  }

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* out) override {
    std::unique_ptr<SequentialFile> base;
    Status s = env_->NewSequentialFile(fname, &base);
    if (!s.ok()) {
      return s;
    }
    // Read exactly the header, leaving the file positioned at the
    // payload.
    char scratch[kShieldHeaderSize];
    std::string header_data;
    while (header_data.size() < kShieldHeaderSize) {
      Slice got;
      s = base->Read(kShieldHeaderSize - header_data.size(), &got, scratch);
      if (!s.ok()) {
        return s;
      }
      if (got.empty()) {
        if (!opts_.encrypt_wal) {
          return env_->NewSequentialFile(fname, out);  // short plaintext file
        }
        return Status::Corruption("SHIELD file shorter than header", fname);
      }
      header_data.append(got.data(), got.size());
    }
    ShieldFileHeader header;
    if (!ParseShieldFileHeader(header_data, &header).ok() &&
        !opts_.encrypt_wal && !HasShieldMagic(Slice(header_data))) {
      // Plaintext file (evaluation-only knob): reopen from the start.
      return env_->NewSequentialFile(fname, out);
    }
    std::unique_ptr<crypto::StreamCipher> cipher;
    std::unique_ptr<crypto::BlockAuthenticator> auth;
    s = OpenCrypto(header_data, &cipher, &auth);
    if (!s.ok()) {
      return s;
    }
    *out = std::make_unique<ShieldSequentialFile>(
        std::move(base), std::move(cipher), std::move(auth), stats_);
    return Status::OK();
  }

  Status DeleteFile(const std::string& fname) override {
    // Recover the DEK-ID from the header so the key dies with the
    // file.
    ShieldFileHeader header;
    Status hs = ReadShieldFileHeader(env_, fname, &header);
    Status s = env_->RemoveFile(fname);
    if (s.ok() && hs.ok()) {
      dek_manager_->ForgetDek(header.dek_id);
    }
    return s;
  }

  Env* env() const override { return env_; }

 private:
  // Resolves the DEK and builds the cipher plus, for version >= 2
  // files, the block authenticator. The header version decides tag
  // presence so version 1 files written before authentication existed
  // keep reading cleanly.
  Status OpenCrypto(const Slice& header_data,
                    std::unique_ptr<crypto::StreamCipher>* cipher,
                    std::unique_ptr<crypto::BlockAuthenticator>* auth) {
    ShieldFileHeader header;
    Status s = ParseShieldFileHeader(header_data, &header);
    if (!s.ok()) {
      return s;
    }
    Dek dek;
    s = dek_manager_->ResolveDek(header.dek_id, &dek);
    if (!s.ok()) {
      return s;
    }
    if (dek.cipher != header.cipher) {
      return Status::Corruption("DEK cipher mismatch with file header");
    }
    if (header.version >= kShieldFormatVersionAuth) {
      *auth = crypto::NewBlockAuthenticator(dek.cipher, dek.key, header.nonce);
      if (*auth == nullptr) {
        return Status::InvalidArgument("cannot build block authenticator");
      }
      (*auth)->SetStatisticsSink(stats_);
    }
    return crypto::NewStreamCipher(dek.cipher, dek.key, header.nonce, cipher);
  }

  Env* env_;
  DekManager* dek_manager_;
  const EncryptionOptions opts_;
  ThreadPool* encryption_pool_;
  Statistics* stats_;
};

}  // namespace

std::unique_ptr<DataFileFactory> NewPlainFileFactory(Env* env) {
  return std::make_unique<PlainFileFactory>(env);
}

std::unique_ptr<DataFileFactory> NewShieldFileFactory(
    Env* env, DekManager* dek_manager, const EncryptionOptions& opts,
    ThreadPool* encryption_pool, Statistics* stats) {
  return std::make_unique<ShieldFileFactory>(env, dek_manager, opts,
                                             encryption_pool, stats);
}

}  // namespace shield
