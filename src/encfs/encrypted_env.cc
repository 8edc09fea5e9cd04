#include "encfs/encrypted_env.h"

#include <cstring>

#include "crypto/secure_random.h"
#include "env/io_stats.h"
#include "shield/encrypted_file.h"

namespace shield {

namespace {

// Format v1: CTR ciphertext only. Format v2 ("SHENCFS2") additionally
// carries per-block/record HMAC tags emitted by sst_builder/log_writer.
// The magic — not a config knob — decides what readers expect, so v1
// files written before authentication existed stay readable.
constexpr char kMagic[8] = {'S', 'H', 'E', 'N', 'C', 'F', 'S', '1'};
constexpr char kMagicAuth[8] = {'S', 'H', 'E', 'N', 'C', 'F', 'S', '2'};

// Header layout within the 4 KiB prologue:
//   magic(8) | cipher(1) | nonce_len(1) | nonce(<=16) | zero padding
std::string BuildHeader(crypto::CipherKind cipher, const std::string& nonce,
                        bool authenticated) {
  std::string header(kEncFsHeaderSize, '\0');
  memcpy(header.data(), authenticated ? kMagicAuth : kMagic, sizeof(kMagic));
  header[8] = static_cast<char>(cipher);
  header[9] = static_cast<char>(nonce.size());
  memcpy(header.data() + 10, nonce.data(), nonce.size());
  return header;
}

// Fills the header's fields into `params`, which already carry the
// instance cipher and key. Fails closed (CheckHeaderCipher) on a header
// that names another cipher than the instance key's.
Status ParseHeader(const Slice& data, EncryptedFileParams* params) {
  if (data.size() >= sizeof(kMagic) &&
      memcmp(data.data(), kMagic, sizeof(kMagic)) == 0) {
    params->authenticated = false;
  } else if (data.size() >= sizeof(kMagicAuth) &&
             memcmp(data.data(), kMagicAuth, sizeof(kMagicAuth)) == 0) {
    params->authenticated = true;
  } else {
    return Status::Corruption("not an EncFS file");
  }
  if (data.size() < kEncFsHeaderSize) {
    return Status::Corruption("truncated EncFS file header");
  }
  const size_t nonce_len = static_cast<uint8_t>(data[9]);
  Status s = CheckHeaderCipher(static_cast<uint8_t>(data[8]), nonce_len,
                               &params->cipher);
  if (!s.ok()) {
    return s;
  }
  params->nonce.assign(data.data() + 10, nonce_len);
  return Status::OK();
}

class EncryptedEnv final : public EnvWrapper {
 public:
  EncryptedEnv(Env* base, crypto::CipherKind cipher, std::string key,
               size_t wal_buffer_size, bool authenticate_blocks,
               Statistics* stats)
      : EnvWrapper(base),
        cipher_kind_(cipher),
        key_(std::move(key)),
        wal_buffer_size_(wal_buffer_size),
        authenticate_blocks_(authenticate_blocks),
        stats_(stats) {}

  Status NewWritableFile(const std::string& f,
                         std::unique_ptr<WritableFile>* r) override {
    std::unique_ptr<WritableFile> base;
    Status s = target()->NewWritableFile(f, &base);
    if (!s.ok()) {
      return s;
    }
    EncryptedFileParams params = InstanceParams();
    params.nonce =
        crypto::SecureRandomString(crypto::CipherNonceSize(cipher_kind_));
    params.authenticated = authenticate_blocks_;
    s = base->Append(BuildHeader(cipher_kind_, params.nonce,
                                 params.authenticated));
    if (!s.ok()) {
      return s;
    }
    // Only WALs buffer; SSTs and the rest encrypt per Append.
    const FileKind kind = ClassifyFile(f);
    const size_t buffer_size = kind == FileKind::kWal ? wal_buffer_size_ : 0;
    return NewEncryptedWritableFile(std::move(base), std::move(params), kind,
                                    buffer_size, /*pool=*/nullptr,
                                    /*threads=*/1, stats_, r);
  }

  Status NewSequentialFile(const std::string& f,
                           std::unique_ptr<SequentialFile>* r) override {
    std::unique_ptr<SequentialFile> base;
    Status s = target()->NewSequentialFile(f, &base);
    if (!s.ok()) {
      return s;
    }
    EncryptedFileParams params;
    s = ReadParams(base.get(), &params);
    if (!s.ok()) {
      return s;
    }
    return NewEncryptedSequentialFile(std::move(base), params, stats_, r);
  }

  Status NewRandomAccessFile(const std::string& f,
                             std::unique_ptr<RandomAccessFile>* r) override {
    std::unique_ptr<RandomAccessFile> base;
    Status s = target()->NewRandomAccessFile(f, &base);
    if (!s.ok()) {
      return s;
    }
    EncryptedFileParams params;
    s = ReadParams(base.get(), &params);
    if (!s.ok()) {
      return s;
    }
    return NewEncryptedRandomAccessFile(std::move(base), params,
                                        /*pool=*/nullptr, /*threads=*/1,
                                        stats_, r);
  }

  Status GetFileSize(const std::string& f, uint64_t* size) override {
    Status s = target()->GetFileSize(f, size);
    if (s.ok()) {
      *size = *size >= kEncFsHeaderSize ? *size - kEncFsHeaderSize : 0;
    }
    return s;
  }

 private:
  // Every EncFS file shares the instance key; only the header's nonce
  // and format version differ.
  EncryptedFileParams InstanceParams() const {
    EncryptedFileParams params;
    params.cipher = cipher_kind_;
    params.key = key_;
    params.header_size = kEncFsHeaderSize;
    return params;
  }

  // Reads and parses an opened file's header (RandomAccessFile or
  // SequentialFile; the latter is left at the payload).
  template <typename File>
  Status ReadParams(File* base, EncryptedFileParams* params) const {
    std::string header;
    Status s = ReadFileHeader(base, kEncFsHeaderSize, &header);
    if (!s.ok()) {
      return s;
    }
    *params = InstanceParams();
    return ParseHeader(header, params);
  }

  const crypto::CipherKind cipher_kind_;
  const std::string key_;
  const size_t wal_buffer_size_;
  const bool authenticate_blocks_;
  Statistics* const stats_;
};

}  // namespace

Status NewEncryptedEnv(Env* base_env, crypto::CipherKind cipher,
                       const std::string& instance_key,
                       std::unique_ptr<Env>* out, size_t wal_buffer_size,
                       bool authenticate_blocks, Statistics* stats) {
  if (instance_key.size() != crypto::CipherKeySize(cipher)) {
    return Status::InvalidArgument("instance key size mismatch for cipher");
  }
  *out = std::make_unique<EncryptedEnv>(base_env, cipher, instance_key,
                                        wal_buffer_size, authenticate_blocks,
                                        stats);
  return Status::OK();
}

}  // namespace shield
