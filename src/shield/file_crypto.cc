#include "shield/file_crypto.h"

#include <cassert>
#include <cstring>

#include "crypto/secure_random.h"
#include "shield/encrypted_file.h"

namespace shield {

namespace {
constexpr char kMagic[8] = {'S', 'H', 'L', 'D', 'F', 'I', 'L', '1'};
// magic(8) | version | cipher | nonce_len | reserved, then the DEK-ID.
constexpr size_t kDekIdOffset = 12;
}  // namespace

std::string EncodeShieldFileHeader(const ShieldFileHeader& header) {
  std::string out(kShieldHeaderSize, '\0');
  memcpy(out.data(), kMagic, sizeof(kMagic));
  out[8] = static_cast<char>(header.version);
  out[9] = static_cast<char>(header.cipher);
  out[10] = static_cast<char>(header.nonce.size());
  out[11] = 0;  // reserved
  memcpy(out.data() + kDekIdOffset, header.dek_id.bytes.data(),
         DekId::kSize);
  memcpy(out.data() + kDekIdOffset + DekId::kSize, header.nonce.data(),
         header.nonce.size());
  return out;
}

Status ParseShieldFileHeader(const Slice& data, ShieldFileHeader* header) {
  // Fail closed on every malformation: this parser also runs on
  // attacker-supplied bytes (backup restore, external-SST ingest), so
  // a header that is not exactly what the encoder emits is Corruption,
  // never a best-effort acceptance.
  if (!LooksLikeShieldFile(data)) {
    return Status::Corruption("not a SHIELD data file");
  }
  if (data.size() < kShieldHeaderSize) {
    return Status::Corruption("truncated SHIELD file header");
  }
  const uint8_t version = static_cast<uint8_t>(data[8]);
  if (version < kShieldFormatVersionBase ||
      version > kShieldFormatVersionGhash) {
    return Status::NotSupported("unknown SHIELD file version");
  }
  if (data[11] != 0) {
    return Status::Corruption("nonzero reserved byte in SHIELD header");
  }
  const size_t nonce_len = static_cast<uint8_t>(data[10]);
  Status s = CheckHeaderCipher(static_cast<uint8_t>(data[9]), nonce_len,
                               /*key_cipher=*/nullptr);
  if (!s.ok()) {
    return s;
  }
  header->version = version;
  header->cipher = static_cast<crypto::CipherKind>(data[9]);
  header->dek_id =
      DekId::FromSlice(Slice(data.data() + kDekIdOffset, DekId::kSize));
  header->nonce.assign(data.data() + kDekIdOffset + DekId::kSize, nonce_len);
  return Status::OK();
}

void SetShieldFileDekId(const DekId& id, std::string* image) {
  assert(image->size() >= kShieldHeaderSize);
  memcpy(image->data() + kDekIdOffset, id.bytes.data(), DekId::kSize);
}

bool LooksLikeShieldFile(const Slice& data) {
  return data.size() >= sizeof(kMagic) &&
         memcmp(data.data(), kMagic, sizeof(kMagic)) == 0;
}

Status ReadShieldFileHeader(Env* env, const std::string& fname,
                            ShieldFileHeader* header) {
  std::unique_ptr<RandomAccessFile> file;
  Status s = env->NewRandomAccessFile(fname, &file);
  if (!s.ok()) {
    return s;
  }
  std::string data;
  s = ReadFileHeader(file.get(), kShieldHeaderSize, &data);
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

// --- SHIELD factory --------------------------------------------------

// The MAC of a SHIELD file of a parsed, so known, header version.
crypto::BlockMac ShieldFileMac(uint8_t version) {
  switch (version) {
    case kShieldFormatVersionHmac:
      return crypto::BlockMac::kHmacSha256;
    case kShieldFormatVersionGhash:
      return crypto::BlockMac::kGhash;
    default:
      return crypto::BlockMac::kNone;
  }
}

// What the encrypted-file core needs of a SHIELD file. The header
// version, not a config knob, decides tag presence, so version 1 files
// written before authentication existed keep reading cleanly.
EncryptedFileParams ShieldFileParams(Dek dek, const ShieldFileHeader& header) {
  EncryptedFileParams params;
  params.cipher = dek.cipher;
  params.key = std::move(dek.key);
  params.nonce = header.nonce;
  params.header_size = kShieldHeaderSize;
  params.mac = ShieldFileMac(header.version);
  return params;
}

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
    header.version = opts_.authenticate_blocks ? kShieldFormatVersionGhash
                                               : kShieldFormatVersionBase;
    header.cipher = dek.cipher;
    header.dek_id = dek.id;
    header.nonce =
        crypto::SecureRandomString(crypto::CipherNonceSize(dek.cipher));
    s = base->Append(EncodeShieldFileHeader(header));
    if (!s.ok()) {
      return s;
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
    return NewEncryptedWritableFile(std::move(base),
                                    ShieldFileParams(std::move(dek), header),
                                    kind, buffer_size, pool, threads, stats_,
                                    out);
  }

  Status NewRandomAccessFile(const std::string& fname,
                             std::unique_ptr<RandomAccessFile>* out) override {
    std::unique_ptr<RandomAccessFile> base;
    Status s = env_->NewRandomAccessFile(fname, &base);
    if (!s.ok()) {
      return s;
    }
    std::string header_data;
    s = ReadFileHeader(base.get(), kShieldHeaderSize, &header_data);
    if (!s.ok()) {
      return s;
    }
    if (IsPlaintext(header_data)) {
      *out = std::move(base);
      return Status::OK();
    }
    EncryptedFileParams params;
    s = ResolveParams(header_data, &params);
    if (!s.ok()) {
      return s;
    }
    return NewEncryptedRandomAccessFile(std::move(base), params,
                                        encryption_pool_,
                                        opts_.encryption_threads, stats_, out);
  }

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* out) override {
    std::unique_ptr<SequentialFile> base;
    Status s = env_->NewSequentialFile(fname, &base);
    if (!s.ok()) {
      return s;
    }
    std::string header_data;
    s = ReadFileHeader(base.get(), kShieldHeaderSize, &header_data);
    if (!s.ok()) {
      return s;
    }
    if (IsPlaintext(header_data)) {
      return env_->NewSequentialFile(fname, out);  // reopen from the start
    }
    EncryptedFileParams params;
    s = ResolveParams(header_data, &params);
    if (!s.ok()) {
      return s;
    }
    return NewEncryptedSequentialFile(std::move(base), params, stats_, out);
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
  // A plaintext file written under the evaluation-only encrypt_wal=false
  // knob (Table 2's "Encrypted SST" row). A file that starts with the
  // SHIELD magic is claimed by SHIELD: a later parse failure in it is
  // corruption, never a demotion to the plaintext read path (which
  // would hand attacker-shaped ciphertext to the log reader).
  bool IsPlaintext(const std::string& header_data) const {
    return !opts_.encrypt_wal && !LooksLikeShieldFile(header_data);
  }

  // Resolves the file's DEK from its header.
  Status ResolveParams(const std::string& header_data,
                       EncryptedFileParams* params) {
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
    s = CheckHeaderCipher(static_cast<uint8_t>(header.cipher),
                          header.nonce.size(), &dek.cipher);
    if (!s.ok()) {
      return s;
    }
    *params = ShieldFileParams(std::move(dek), header);
    return Status::OK();
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
