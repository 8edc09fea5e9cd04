#include "kds/secure_dek_cache.h"

#include <cstring>

#include "crypto/cipher.h"
#include "crypto/hkdf.h"
#include "crypto/hmac.h"
#include "crypto/secure_random.h"
#include "util/coding.h"
#include "util/retry.h"

namespace shield {

namespace {

constexpr char kMagicV1[8] = {'S', 'H', 'D', 'C', 'A', 'C', 'H', '1'};
constexpr char kMagicV2[8] = {'S', 'H', 'D', 'C', 'A', 'C', 'H', '2'};
constexpr size_t kMagicSize = 8;
constexpr size_t kSaltSize = 16;
constexpr size_t kNonceSize = 16;
constexpr size_t kCtLenSize = 8;
constexpr size_t kMacSize = 32;

/// Cache-file I/O retries transient storage faults; losing a persist
/// costs a KDS round-trip after restart, but riding out a blip keeps
/// the cache and the KDS view consistent.
const RetryPolicy& CacheIoRetryPolicy() {
  static const RetryPolicy policy = [] {
    RetryPolicy p;
    p.max_attempts = 5;
    p.initial_backoff_micros = 200;
    p.max_backoff_micros = 10 * 1000;
    return p;
  }();
  return policy;
}

std::string DeriveEncKey(const std::string& passkey, const Slice& salt) {
  return crypto::HkdfSha256(passkey, salt, "shield-dek-cache-enc", 32);
}

std::string DeriveMacKey(const std::string& passkey, const Slice& salt) {
  return crypto::HkdfSha256(passkey, salt, "shield-dek-cache-mac", 32);
}

}  // namespace

SecureDekCache::SecureDekCache(Env* env, std::string path, std::string passkey)
    : env_(env), path_(std::move(path)), passkey_(std::move(passkey)) {}

Status SecureDekCache::Open(Env* env, const std::string& path,
                            const std::string& passkey,
                            std::unique_ptr<SecureDekCache>* out) {
  if (passkey.empty()) {
    return Status::InvalidArgument("secure DEK cache requires a passkey");
  }
  std::unique_ptr<SecureDekCache> cache(
      new SecureDekCache(env, path, passkey));
  // A stale .tmp is a persist that never reached its rename; the real
  // file (if any) is authoritative.
  if (env->FileExists(path + ".tmp")) {
    env->RemoveFile(path + ".tmp");
  }
  if (env->FileExists(path)) {
    Status s = cache->Load();
    if (s.IsCorruption()) {
      // Torn/truncated file (crash mid-write on a filesystem without
      // atomic rename, or media damage). Every cached DEK can be
      // re-fetched from the KDS, so quarantine the damaged file and
      // start empty rather than failing the open.
      cache->deks_.clear();
      cache->salt_ = crypto::SecureRandomString(kSaltSize);
      cache->recovered_ = true;
      env->RenameFile(path, path + ".corrupt");  // best effort
    } else if (!s.ok()) {
      // PermissionDenied (wrong passkey / tampering) and I/O errors
      // still fail the open: the file is intact, the caller is wrong.
      return s;
    }
  } else {
    cache->salt_ = crypto::SecureRandomString(kSaltSize);
  }
  *out = std::move(cache);
  return Status::OK();
}

std::string SecureDekCache::Serialize() const {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(deks_.size()));
  for (const auto& [id, dek] : deks_) {
    out.append(reinterpret_cast<const char*>(id.bytes.data()), DekId::kSize);
    out.push_back(static_cast<char>(dek.cipher));
    PutLengthPrefixedSlice(&out, dek.key);
  }
  return out;
}

Status SecureDekCache::Deserialize(const Slice& data) {
  Slice input = data;
  uint32_t count;
  if (!GetVarint32(&input, &count)) {
    return Status::Corruption("bad DEK cache payload");
  }
  for (uint32_t i = 0; i < count; i++) {
    if (input.size() < DekId::kSize + 1) {
      return Status::Corruption("truncated DEK cache entry");
    }
    Dek dek;
    dek.id = DekId::FromSlice(input);
    input.remove_prefix(DekId::kSize);
    dek.cipher = static_cast<crypto::CipherKind>(input[0]);
    input.remove_prefix(1);
    Slice key;
    if (!GetLengthPrefixedSlice(&input, &key)) {
      return Status::Corruption("truncated DEK cache key");
    }
    dek.key = key.ToString();
    deks_[dek.id] = dek;
  }
  return Status::OK();
}

Status SecureDekCache::Load() {
  std::string contents;
  Status s = RunWithRetry(CacheIoRetryPolicy(), [&] {
    return ReadFileToString(env_, path_, &contents);
  });
  if (!s.ok()) {
    return s;
  }
  const bool v2 = contents.size() >= kMagicSize &&
                  memcmp(contents.data(), kMagicV2, kMagicSize) == 0;
  const bool v1 = !v2 && contents.size() >= kMagicSize &&
                  memcmp(contents.data(), kMagicV1, kMagicSize) == 0;
  const size_t header =
      kMagicSize + kSaltSize + kNonceSize + (v2 ? kCtLenSize : 0);
  if ((!v1 && !v2) || contents.size() < header + kMacSize) {
    return Status::Corruption("bad secure DEK cache file", path_);
  }
  salt_ = contents.substr(kMagicSize, kSaltSize);
  const std::string nonce =
      contents.substr(kMagicSize + kSaltSize, kNonceSize);
  size_t ct_len = contents.size() - header - kMacSize;
  if (v2) {
    // The declared length must match the bytes actually present;
    // anything else is a torn write, not a passkey problem.
    const uint64_t declared =
        DecodeFixed64(contents.data() + kMagicSize + kSaltSize + kNonceSize);
    if (declared != ct_len) {
      return Status::Corruption("truncated secure DEK cache file", path_);
    }
  }
  std::string ciphertext = contents.substr(header, ct_len);
  const Slice stored_mac(contents.data() + header + ct_len, kMacSize);

  // Authenticate before decrypting.
  const std::string mac_key = DeriveMacKey(passkey_, salt_);
  const std::string expected =
      crypto::HmacSha256(mac_key, Slice(contents.data(), header + ct_len));
  if (!crypto::ConstantTimeEqual(expected, stored_mac)) {
    return Status::PermissionDenied(
        "secure DEK cache authentication failed (wrong passkey or tampered)",
        path_);
  }

  const std::string enc_key = DeriveEncKey(passkey_, salt_);
  std::unique_ptr<crypto::StreamCipher> cipher;
  Status cs = crypto::NewStreamCipher(crypto::CipherKind::kAes256Ctr, enc_key,
                                      nonce, &cipher);
  if (!cs.ok()) {
    return cs;
  }
  cs = cipher->CryptAt(0, ciphertext.data(), ciphertext.size());
  if (!cs.ok()) {
    return cs;
  }
  return Deserialize(ciphertext);
}

Status SecureDekCache::Persist() {
  std::string plaintext = Serialize();

  const std::string nonce = crypto::SecureRandomString(kNonceSize);
  const std::string enc_key = DeriveEncKey(passkey_, salt_);
  std::unique_ptr<crypto::StreamCipher> cipher;
  Status s = crypto::NewStreamCipher(crypto::CipherKind::kAes256Ctr, enc_key,
                                     nonce, &cipher);
  if (!s.ok()) {
    return s;
  }
  s = cipher->CryptAt(0, plaintext.data(), plaintext.size());
  if (!s.ok()) {
    return s;
  }

  std::string file;
  file.append(kMagicV2, kMagicSize);
  file.append(salt_);
  file.append(nonce);
  PutFixed64(&file, plaintext.size());
  file.append(plaintext);  // now ciphertext
  const std::string mac_key = DeriveMacKey(passkey_, salt_);
  file.append(crypto::HmacSha256(mac_key, file));

  // Write-then-rename for atomicity against crashes mid-persist.
  return RunWithRetry(CacheIoRetryPolicy(), [&] {
    return ReplaceFileAtomically(env_, file, path_ + ".tmp", path_);
  });
}

Status SecureDekCache::Get(const DekId& id, Dek* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = deks_.find(id);
  if (it == deks_.end()) {
    return Status::NotFound("DEK not in secure cache", id.ToHex());
  }
  *out = it->second;
  return Status::OK();
}

Status SecureDekCache::Put(const Dek& dek) {
  std::lock_guard<std::mutex> lock(mu_);
  deks_[dek.id] = dek;
  return Persist();
}

Status SecureDekCache::Erase(const DekId& id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (deks_.erase(id) == 0) {
    return Status::OK();  // idempotent
  }
  return Persist();
}

size_t SecureDekCache::NumDeks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return deks_.size();
}

}  // namespace shield
