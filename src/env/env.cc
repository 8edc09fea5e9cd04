#include "env/env.h"

namespace shield {

Status RandomAccessFile::Unseal(uint64_t /*offset*/, const Slice& stored,
                                char* /*out*/, Slice* result) const {
  if (block_authenticator() != nullptr) {
    return Status::NotSupported("file wrapper does not forward Unseal");
  }
  *result = stored;
  return Status::OK();
}

Status RandomAccessFile::Decrypt(uint64_t /*offset*/, Slice* /*result*/,
                                 char* /*scratch*/) const {
  if (block_authenticator() != nullptr) {
    return Status::NotSupported("file wrapper does not forward Decrypt");
  }
  return Status::OK();
}

Status SequentialFile::Decrypt(uint64_t /*offset*/, Slice* /*result*/,
                               char* /*scratch*/) const {
  if (block_authenticator() != nullptr) {
    return Status::NotSupported("file wrapper does not forward Decrypt");
  }
  return Status::OK();
}

Status WritableFile::AppendSealed(const Slice& data, const Slice& trailer) {
  if (block_authenticator() != nullptr) {
    return Status::NotSupported("file wrapper does not forward AppendSealed");
  }
  Status s = Append(data);
  if (s.ok() && !trailer.empty()) {
    s = Append(trailer);
  }
  return s;
}

Status WriteStringToFile(Env* env, const Slice& data, const std::string& fname,
                         bool sync) {
  std::unique_ptr<WritableFile> file;
  Status s = env->NewWritableFile(fname, &file);
  if (!s.ok()) {
    return s;
  }
  s = file->Append(data);
  if (s.ok() && sync) {
    s = file->Sync();
  }
  if (s.ok()) {
    s = file->Close();
  }
  if (!s.ok()) {
    env->RemoveFile(fname);
  }
  return s;
}

Status ReplaceFileAtomically(Env* env, const Slice& data,
                             const std::string& tmp, const std::string& fname) {
  Status s = WriteStringToFile(env, data, tmp, /*sync=*/true);
  if (s.ok()) {
    s = env->RenameFile(tmp, fname);
  }
  if (!s.ok()) {
    env->RemoveFile(tmp);
  }
  return s;
}

Status ReadFileToString(Env* env, const std::string& fname, std::string* data) {
  data->clear();
  std::unique_ptr<SequentialFile> file;
  Status s = env->NewSequentialFile(fname, &file);
  if (!s.ok()) {
    return s;
  }
  static constexpr size_t kBufferSize = 64 * 1024;
  std::string scratch(kBufferSize, '\0');
  while (true) {
    Slice fragment;
    s = file->Read(kBufferSize, &fragment, scratch.data());
    if (!s.ok()) {
      break;
    }
    if (fragment.empty()) {
      break;
    }
    data->append(fragment.data(), fragment.size());
  }
  return s;
}

}  // namespace shield
