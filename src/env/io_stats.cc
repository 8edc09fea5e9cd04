#include "env/io_stats.h"

#include <cstdio>
#include <cstring>

namespace shield {

FileKind ClassifyFile(const std::string& fname) {
  // Strip directory components.
  const size_t slash = fname.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? fname : fname.substr(slash + 1);
  auto ends_with = [&](const char* suffix) {
    const size_t n = strlen(suffix);
    return base.size() >= n && base.compare(base.size() - n, n, suffix) == 0;
  };
  if (ends_with(".log")) {
    return FileKind::kWal;
  }
  if (ends_with(".sst")) {
    return FileKind::kSst;
  }
  if (base.compare(0, 8, "MANIFEST") == 0 || base == "CURRENT") {
    return FileKind::kManifest;
  }
  return FileKind::kOther;
}

uint64_t IoStats::TotalReadBytes() const {
  uint64_t total = 0;
  for (int i = 0; i < kNumFileKinds; i++) {
    total += read_bytes_[i].load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t IoStats::TotalWriteBytes() const {
  uint64_t total = 0;
  for (int i = 0; i < kNumFileKinds; i++) {
    total += write_bytes_[i].load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t IoStats::TotalReadOps() const {
  uint64_t total = 0;
  for (int i = 0; i < kNumFileKinds; i++) {
    total += read_ops_[i].load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t IoStats::TotalWriteOps() const {
  uint64_t total = 0;
  for (int i = 0; i < kNumFileKinds; i++) {
    total += write_ops_[i].load(std::memory_order_relaxed);
  }
  return total;
}

void IoStats::Reset() {
  for (int i = 0; i < kNumFileKinds; i++) {
    read_bytes_[i].store(0, std::memory_order_relaxed);
    write_bytes_[i].store(0, std::memory_order_relaxed);
    read_ops_[i].store(0, std::memory_order_relaxed);
    write_ops_[i].store(0, std::memory_order_relaxed);
  }
}

std::string IoStats::ToString() const {
  char buf[320];
  const double mib = 1024.0 * 1024.0;
  snprintf(buf, sizeof(buf),
           "wal r/w=%.1f/%.1f MiB, sst r/w=%.1f/%.1f MiB, "
           "manifest r/w=%.1f/%.1f MiB, other r/w=%.1f/%.1f MiB",
           ReadBytes(FileKind::kWal) / mib, WriteBytes(FileKind::kWal) / mib,
           ReadBytes(FileKind::kSst) / mib, WriteBytes(FileKind::kSst) / mib,
           ReadBytes(FileKind::kManifest) / mib,
           WriteBytes(FileKind::kManifest) / mib,
           ReadBytes(FileKind::kOther) / mib,
           WriteBytes(FileKind::kOther) / mib);
  return buf;
}

namespace {

class CountingSequentialFile final : public SequentialFile {
 public:
  CountingSequentialFile(std::unique_ptr<SequentialFile> base, IoStats* stats,
                         FileKind kind)
      : base_(std::move(base)), stats_(stats), kind_(kind) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    Status s = base_->Read(n, result, scratch);
    if (s.ok()) {
      stats_->AddRead(kind_, result->size());
    }
    return s;
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  std::unique_ptr<SequentialFile> base_;
  IoStats* stats_;
  FileKind kind_;
};

class CountingRandomAccessFile final : public RandomAccessFile {
 public:
  CountingRandomAccessFile(std::unique_ptr<RandomAccessFile> base,
                           IoStats* stats, FileKind kind)
      : base_(std::move(base)), stats_(stats), kind_(kind) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    Status s = base_->Read(offset, n, result, scratch);
    if (s.ok()) {
      stats_->AddRead(kind_, result->size());
    }
    return s;
  }
  Status Size(uint64_t* size) const override { return base_->Size(size); }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  IoStats* stats_;
  FileKind kind_;
};

class CountingWritableFile final : public WritableFile {
 public:
  CountingWritableFile(std::unique_ptr<WritableFile> base, IoStats* stats,
                       FileKind kind)
      : base_(std::move(base)), stats_(stats), kind_(kind) {}

  Status Append(const Slice& data) override {
    Status s = base_->Append(data);
    if (s.ok()) {
      stats_->AddWrite(kind_, data.size());
    }
    return s;
  }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override { return base_->Sync(); }
  Status Close() override { return base_->Close(); }
  uint64_t GetFileSize() const override { return base_->GetFileSize(); }

 private:
  std::unique_ptr<WritableFile> base_;
  IoStats* stats_;
  FileKind kind_;
};

class CountingEnv final : public EnvWrapper {
 public:
  CountingEnv(Env* base, IoStats* stats) : EnvWrapper(base), stats_(stats) {}

  Status NewSequentialFile(const std::string& f,
                           std::unique_ptr<SequentialFile>* r) override {
    std::unique_ptr<SequentialFile> base;
    Status s = target()->NewSequentialFile(f, &base);
    if (!s.ok()) {
      return s;
    }
    *r = std::make_unique<CountingSequentialFile>(std::move(base), stats_,
                                                  ClassifyFile(f));
    return Status::OK();
  }

  Status NewRandomAccessFile(const std::string& f,
                             std::unique_ptr<RandomAccessFile>* r) override {
    std::unique_ptr<RandomAccessFile> base;
    Status s = target()->NewRandomAccessFile(f, &base);
    if (!s.ok()) {
      return s;
    }
    *r = std::make_unique<CountingRandomAccessFile>(std::move(base), stats_,
                                                    ClassifyFile(f));
    return Status::OK();
  }

  Status NewWritableFile(const std::string& f,
                         std::unique_ptr<WritableFile>* r) override {
    std::unique_ptr<WritableFile> base;
    Status s = target()->NewWritableFile(f, &base);
    if (!s.ok()) {
      return s;
    }
    *r = std::make_unique<CountingWritableFile>(std::move(base), stats_,
                                                ClassifyFile(f));
    return Status::OK();
  }

 private:
  IoStats* stats_;
};

}  // namespace

std::unique_ptr<Env> NewCountingEnv(Env* base, IoStats* stats) {
  return std::make_unique<CountingEnv>(base, stats);
}

}  // namespace shield
