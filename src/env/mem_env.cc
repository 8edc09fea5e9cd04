#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <mutex>
#include <new>
#include <set>
#include <vector>

#include "env/env.h"

namespace shield {

namespace {

// An in-memory file. Its bytes live in chunks mapped straight from the
// OS, page-backed the way tmpfs holds a file: pages are resident once
// written, and a deleted file returns them at once, whichever thread
// wrote it. Reads and writes are internally synchronized so a reader
// can observe a file that a writer is still appending to (the
// read-only-instance catch-up path relies on this).
class FileState {
 public:
  FileState() = default;
  FileState(const FileState&) = delete;
  FileState& operator=(const FileState&) = delete;
  ~FileState() {
    for (char* chunk : chunks_) {
      munmap(chunk, kChunkSize);
    }
  }

  void Append(const Slice& data) {
    std::lock_guard<std::mutex> lock(mu_);
    const char* src = data.data();
    size_t left = data.size();
    while (left > 0) {
      const size_t used = static_cast<size_t>(size_ % kChunkSize);
      if (used == 0) {
        void* chunk = mmap(nullptr, kChunkSize, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (chunk == MAP_FAILED) {
          throw std::bad_alloc();
        }
        chunks_.push_back(static_cast<char*>(chunk));
      }
      const size_t take = std::min(left, kChunkSize - used);
      memcpy(chunks_.back() + used, src, take);
      src += take;
      left -= take;
      size_ += take;
    }
  }

  uint64_t Size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }

  size_t Read(uint64_t offset, size_t n, char* scratch) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (offset >= size_) {
      return 0;
    }
    const size_t take =
        static_cast<size_t>(std::min<uint64_t>(n, size_ - offset));
    size_t done = 0;
    while (done < take) {
      const uint64_t at = offset + done;
      const size_t in_chunk = static_cast<size_t>(at % kChunkSize);
      const size_t piece = std::min(take - done, kChunkSize - in_chunk);
      memcpy(scratch + done, chunks_[at / kChunkSize] + in_chunk, piece);
      done += piece;
    }
    return take;
  }

 private:
  static constexpr size_t kChunkSize = 1 << 20;

  mutable std::mutex mu_;
  std::vector<char*> chunks_;
  uint64_t size_ = 0;
};

using FileRef = std::shared_ptr<FileState>;

class MemSequentialFile final : public SequentialFile {
 public:
  explicit MemSequentialFile(FileRef file) : file_(std::move(file)) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    const size_t got = file_->Read(pos_, n, scratch);
    *result = Slice(scratch, got);
    pos_ += got;
    return Status::OK();
  }

  Status Skip(uint64_t n) override {
    pos_ += n;
    return Status::OK();
  }

 private:
  FileRef file_;
  uint64_t pos_ = 0;
};

class MemRandomAccessFile final : public RandomAccessFile {
 public:
  explicit MemRandomAccessFile(FileRef file) : file_(std::move(file)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    const size_t got = file_->Read(offset, n, scratch);
    *result = Slice(scratch, got);
    return Status::OK();
  }

  Status Size(uint64_t* size) const override {
    *size = file_->Size();
    return Status::OK();
  }

 private:
  FileRef file_;
};

class MemWritableFile final : public WritableFile {
 public:
  explicit MemWritableFile(FileRef file) : file_(std::move(file)) {}

  Status Append(const Slice& data) override {
    file_->Append(data);
    return Status::OK();
  }
  Status Flush() override { return Status::OK(); }
  Status Sync() override { return Status::OK(); }
  Status Close() override { return Status::OK(); }
  uint64_t GetFileSize() const override { return file_->Size(); }

 private:
  FileRef file_;
};

class MemEnv final : public Env {
 public:
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    FileRef file;
    Status s = Find(fname, &file);
    if (!s.ok()) {
      return s;
    }
    *result = std::make_unique<MemSequentialFile>(std::move(file));
    return Status::OK();
  }

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    FileRef file;
    Status s = Find(fname, &file);
    if (!s.ok()) {
      return s;
    }
    *result = std::make_unique<MemRandomAccessFile>(std::move(file));
    return Status::OK();
  }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto file = std::make_shared<FileState>();
    files_[fname] = file;
    *result = std::make_unique<MemWritableFile>(std::move(file));
    return Status::OK();
  }

  bool FileExists(const std::string& fname) override {
    std::lock_guard<std::mutex> lock(mu_);
    return files_.count(fname) > 0;
  }

  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    result->clear();
    const std::string prefix = dir.empty() || dir.back() == '/' ? dir : dir + "/";
    std::set<std::string> names;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [path, file] : files_) {
      if (path.compare(0, prefix.size(), prefix) == 0) {
        std::string rest = path.substr(prefix.size());
        const size_t slash = rest.find('/');
        if (slash != std::string::npos) {
          rest = rest.substr(0, slash);
        }
        if (!rest.empty()) {
          names.insert(rest);
        }
      }
    }
    result->assign(names.begin(), names.end());
    return Status::OK();
  }

  Status RemoveFile(const std::string& fname) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (files_.erase(fname) == 0) {
      return Status::NotFound(fname);
    }
    return Status::OK();
  }

  Status CreateDirIfMissing(const std::string& dirname) override {
    std::lock_guard<std::mutex> lock(mu_);
    dirs_.insert(dirname);
    return Status::OK();
  }

  Status RemoveDir(const std::string& dirname) override {
    std::lock_guard<std::mutex> lock(mu_);
    dirs_.erase(dirname);
    return Status::OK();
  }

  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    FileRef file;
    Status s = Find(fname, &file);
    if (!s.ok()) {
      return s;
    }
    *size = file->Size();
    return Status::OK();
  }

  Status RenameFile(const std::string& src, const std::string& target) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(src);
    if (it == files_.end()) {
      return Status::NotFound(src);
    }
    files_[target] = it->second;
    files_.erase(it);
    return Status::OK();
  }

 private:
  Status Find(const std::string& fname, FileRef* out) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(fname);
    if (it == files_.end()) {
      return Status::NotFound(fname);
    }
    *out = it->second;
    return Status::OK();
  }

  std::mutex mu_;
  std::map<std::string, FileRef> files_;
  std::set<std::string> dirs_;
};

}  // namespace

std::unique_ptr<Env> NewMemEnv() { return std::make_unique<MemEnv>(); }

}  // namespace shield
