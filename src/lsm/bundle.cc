#include "lsm/bundle.h"

#include <sstream>

#include "crypto/hmac.h"
#include "shield/dek_manager.h"
#include "shield/file_crypto.h"

namespace shield {

namespace {

constexpr uint32_t kBundleFormatVersion = 1;

std::string ToHexString(const Slice& data) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (size_t i = 0; i < data.size(); i++) {
    const uint8_t b = static_cast<uint8_t>(data[i]);
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

}  // namespace

std::string BundleManifestPath(const BundleKind& kind,
                               const std::string& dir) {
  return dir + "/" + kind.manifest_name;
}

std::string EncodeBundleManifest(const BundleKind& kind,
                                 const std::string& target_server_id,
                                 const std::vector<BundleFileEntry>& files,
                                 const std::string& hmac_key) {
  std::string out;
  out.append(kind.magic);
  out.append("\n");
  out.append("format " + std::to_string(kBundleFormatVersion) + "\n");
  out.append("target " +
             (target_server_id.empty() ? std::string("-") : target_server_id) +
             "\n");
  for (const auto& f : files) {
    out.append("file " + f.name + " " + std::to_string(f.size) + " " +
               f.hmac_hex + " " + f.old_dek_hex + " " + f.new_dek_hex + "\n");
  }
  out.append("mac " + ToHexString(crypto::HmacSha256(hmac_key, out)) + "\n");
  return out;
}

Status DecodeBundleManifest(const BundleKind& kind, const std::string& data,
                            const std::string& hmac_key, std::string* target,
                            std::vector<BundleFileEntry>* files) {
  const std::string noun = kind.noun;
  // The MAC covers everything up to (and including) the newline before
  // the "mac " line.
  const size_t mac_pos = data.rfind("mac ");
  if (mac_pos == std::string::npos ||
      (mac_pos != 0 && data[mac_pos - 1] != '\n')) {
    return Status::Corruption(noun + " manifest missing MAC line");
  }
  const std::string body = data.substr(0, mac_pos);
  std::string mac_line = data.substr(mac_pos + 4);
  while (!mac_line.empty() &&
         (mac_line.back() == '\n' || mac_line.back() == '\r')) {
    mac_line.pop_back();
  }
  if (mac_line != ToHexString(crypto::HmacSha256(hmac_key, body))) {
    return Status::Corruption(noun + " manifest MAC mismatch (tampered " +
                              noun + " or wrong key)");
  }

  std::istringstream in(body);
  std::string line;
  if (!std::getline(in, line) || line != kind.magic) {
    return Status::Corruption("bad " + noun + " manifest magic");
  }
  if (!std::getline(in, line) ||
      line != "format " + std::to_string(kBundleFormatVersion)) {
    return Status::NotSupported("unsupported " + noun + " manifest format");
  }
  if (!std::getline(in, line) || line.rfind("target ", 0) != 0) {
    return Status::Corruption(noun + " manifest missing target line");
  }
  *target = line.substr(7);
  if (*target == "-") {
    target->clear();
  }
  files->clear();
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    std::istringstream fields(line);
    std::string tag;
    BundleFileEntry entry;
    fields >> tag >> entry.name >> entry.size >> entry.hmac_hex >>
        entry.old_dek_hex >> entry.new_dek_hex;
    if (fields.fail() || tag != "file" || entry.name.empty() ||
        entry.name.find('/') != std::string::npos ||
        entry.name.find("..") != std::string::npos) {
      return Status::Corruption("bad " + noun + " manifest file entry: " +
                                line);
    }
    files->push_back(std::move(entry));
  }
  return Status::OK();
}

Status LoadAndVerifyBundle(const BundleKind& kind, Env* env,
                           const std::string& dir,
                           const std::string& hmac_key,
                           std::vector<BundleFileEntry>* entries,
                           std::vector<std::string>* images) {
  std::string manifest_data;
  Status s =
      ReadFileToString(env, BundleManifestPath(kind, dir), &manifest_data);
  if (!s.ok()) {
    return s;
  }
  std::string target;
  s = DecodeBundleManifest(kind, manifest_data, hmac_key, &target, entries);
  if (!s.ok()) {
    return s;
  }
  std::string image;
  for (const BundleFileEntry& entry : *entries) {
    s = ReadFileToString(env, dir + "/" + entry.name, &image);
    if (!s.ok()) {
      return s;
    }
    if (image.size() != entry.size ||
        ToHexString(crypto::HmacSha256(hmac_key, image)) != entry.hmac_hex) {
      return Status::Corruption(
          std::string(kind.noun) + " file failed HMAC verification",
          entry.name);
    }
    if (images != nullptr) {
      images->push_back(std::move(image));
    }
  }
  return Status::OK();
}

Status SealBundleFile(DekManager* dek_manager,
                      const std::string& target_server_id,
                      const std::string& hmac_key, std::string* image,
                      BundleFileEntry* entry) {
  if (!target_server_id.empty() && LooksLikeShieldFile(*image)) {
    ShieldFileHeader header;
    Status s = ParseShieldFileHeader(*image, &header);
    if (!s.ok()) {
      return s;
    }
    Dek rewrapped;
    s = dek_manager->RewrapDek(header.dek_id, target_server_id, &rewrapped);
    if (!s.ok()) {
      return s;
    }
    entry->old_dek_hex = header.dek_id.ToHex();
    entry->new_dek_hex = rewrapped.id.ToHex();
    SetShieldFileDekId(rewrapped.id, image);
  }
  entry->size = image->size();
  entry->hmac_hex = ToHexString(crypto::HmacSha256(hmac_key, *image));
  return Status::OK();
}

}  // namespace shield
