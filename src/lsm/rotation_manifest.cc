#include "lsm/rotation_manifest.h"

#include <cstring>

#include "lsm/file_names.h"
#include "util/coding.h"
#include "util/crc32c.h"

namespace shield {

namespace {

constexpr char kMagic[8] = {'S', 'H', 'R', 'O', 'T', 'M', 'F', '1'};
constexpr size_t kMagicSize = 8;

void PutFileList(std::string* out, const std::vector<uint64_t>& files) {
  PutFixed32(out, static_cast<uint32_t>(files.size()));
  for (uint64_t number : files) {
    PutFixed64(out, number);
  }
}

bool GetFileList(Slice* input, std::vector<uint64_t>* files) {
  if (input->size() < sizeof(uint32_t)) {
    return false;
  }
  const uint32_t count = DecodeFixed32(input->data());
  input->remove_prefix(sizeof(uint32_t));
  if (input->size() < static_cast<size_t>(count) * sizeof(uint64_t)) {
    return false;
  }
  files->clear();
  files->reserve(count);
  for (uint32_t i = 0; i < count; i++) {
    files->push_back(DecodeFixed64(input->data()));
    input->remove_prefix(sizeof(uint64_t));
  }
  return true;
}

}  // namespace

void RotationManifest::EncodeTo(std::string* out) const {
  out->append(kMagic, kMagicSize);
  PutFixed32(out, kFormatVersion);
  PutFixed64(out, rotation_id);
  out->push_back(static_cast<char>(state));
  PutFileList(out, pending);
  PutFileList(out, done);
  PutFixed32(out, crc32c::Mask(crc32c::Value(out->data(), out->size())));
}

Status RotationManifest::DecodeFrom(const Slice& data) {
  if (data.size() < kMagicSize + sizeof(uint32_t) ||
      memcmp(data.data(), kMagic, kMagicSize) != 0) {
    return Status::Corruption("bad rotation manifest magic");
  }
  const size_t body_len = data.size() - sizeof(uint32_t);
  const uint32_t stored_crc =
      crc32c::Unmask(DecodeFixed32(data.data() + body_len));
  if (crc32c::Value(data.data(), body_len) != stored_crc) {
    return Status::Corruption("rotation manifest checksum mismatch");
  }
  Slice input(data.data() + kMagicSize, body_len - kMagicSize);
  if (input.size() < sizeof(uint32_t) + sizeof(uint64_t) + 1) {
    return Status::Corruption("rotation manifest too short");
  }
  const uint32_t format = DecodeFixed32(input.data());
  input.remove_prefix(sizeof(uint32_t));
  if (format == 0 || format > kFormatVersion) {
    return Status::Corruption("unsupported rotation manifest version");
  }
  rotation_id = DecodeFixed64(input.data());
  input.remove_prefix(sizeof(uint64_t));
  const uint8_t raw_state = static_cast<uint8_t>(input[0]);
  input.remove_prefix(1);
  if (raw_state != static_cast<uint8_t>(State::kRunning) &&
      raw_state != static_cast<uint8_t>(State::kDone)) {
    return Status::Corruption("bad rotation manifest state");
  }
  state = static_cast<State>(raw_state);
  if (!GetFileList(&input, &pending) || !GetFileList(&input, &done)) {
    return Status::Corruption("truncated rotation manifest file list");
  }
  return Status::OK();
}

Status RotationManifest::Save(Env* env, const std::string& dbname) const {
  std::string data;
  EncodeTo(&data);
  const std::string fname = RotationManifestFileName(dbname);
  return ReplaceFileAtomically(env, data, fname + ".tmp", fname);
}

Status RotationManifest::Load(Env* env, const std::string& dbname,
                              RotationManifest* out) {
  const std::string fname = RotationManifestFileName(dbname);
  if (!env->FileExists(fname)) {
    return Status::NotFound("no rotation in progress", fname);
  }
  std::string data;
  Status s = ReadFileToString(env, fname, &data);
  if (!s.ok()) {
    return s;
  }
  return out->DecodeFrom(data);
}

Status RotationManifest::Remove(Env* env, const std::string& dbname) {
  const std::string fname = RotationManifestFileName(dbname);
  if (!env->FileExists(fname)) {
    return Status::OK();
  }
  return env->RemoveFile(fname);
}

}  // namespace shield
