#include "env/trace_env.h"

#include <utility>

#include "util/trace.h"

namespace shield {

namespace {

/// Strips the directory so span labels are short and stable across
/// scratch directories (trace_replay joins them back onto --dir).
Slice BaseName(const std::string& fname) {
  const size_t slash = fname.find_last_of('/');
  if (slash == std::string::npos) {
    return Slice(fname);
  }
  return Slice(fname.data() + slash + 1, fname.size() - slash - 1);
}

class TracingSequentialFile final : public SequentialFile {
 public:
  TracingSequentialFile(std::unique_ptr<SequentialFile> base,
                        std::string fname)
      : base_(std::move(base)), fname_(std::move(fname)) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    if (!Tracer::AnyActive()) {
      Status s = base_->Read(n, result, scratch);
      offset_ += result->size();
      return s;
    }
    TraceSpan span(SpanType::kIoRead, BaseName(fname_));
    Status s = base_->Read(n, result, scratch);
    span.SetArgs(offset_, result->size());
    span.MarkStatus(s);
    offset_ += result->size();
    return s;
  }

  Status Skip(uint64_t n) override {
    Status s = base_->Skip(n);
    if (s.ok()) {
      offset_ += n;
    }
    return s;
  }

 private:
  std::unique_ptr<SequentialFile> base_;
  const std::string fname_;
  uint64_t offset_ = 0;
};

class TracingRandomAccessFile final : public RandomAccessFile {
 public:
  TracingRandomAccessFile(std::unique_ptr<RandomAccessFile> base,
                          std::string fname)
      : base_(std::move(base)), fname_(std::move(fname)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    if (!Tracer::AnyActive()) {
      return base_->Read(offset, n, result, scratch);
    }
    TraceSpan span(SpanType::kIoRead, BaseName(fname_));
    Status s = base_->Read(offset, n, result, scratch);
    span.SetArgs(offset, n);
    span.MarkStatus(s);
    return s;
  }

  Status Size(uint64_t* size) const override { return base_->Size(size); }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  const std::string fname_;
};

class TracingWritableFile final : public WritableFile {
 public:
  TracingWritableFile(std::unique_ptr<WritableFile> base, std::string fname)
      : base_(std::move(base)), fname_(std::move(fname)) {}

  Status Append(const Slice& data) override {
    if (!Tracer::AnyActive()) {
      return base_->Append(data);
    }
    TraceSpan span(SpanType::kIoWrite, BaseName(fname_));
    span.SetArgs(base_->GetFileSize(), data.size());
    Status s = base_->Append(data);
    span.MarkStatus(s);
    return s;
  }

  Status Flush() override { return base_->Flush(); }

  Status Sync() override {
    if (!Tracer::AnyActive()) {
      return base_->Sync();
    }
    TraceSpan span(SpanType::kIoSync, BaseName(fname_));
    span.SetArgs(0, base_->GetFileSize());
    Status s = base_->Sync();
    span.MarkStatus(s);
    return s;
  }

  Status Close() override { return base_->Close(); }

  uint64_t GetFileSize() const override { return base_->GetFileSize(); }

 private:
  std::unique_ptr<WritableFile> base_;
  const std::string fname_;
};

class IOTracingEnv final : public EnvWrapper {
 public:
  explicit IOTracingEnv(Env* base) : EnvWrapper(base) {}

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    std::unique_ptr<SequentialFile> base;
    Status s = target()->NewSequentialFile(fname, &base);
    if (s.ok()) {
      result->reset(new TracingSequentialFile(std::move(base), fname));
    }
    return s;
  }

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    std::unique_ptr<RandomAccessFile> base;
    Status s = target()->NewRandomAccessFile(fname, &base);
    if (s.ok()) {
      result->reset(new TracingRandomAccessFile(std::move(base), fname));
    }
    return s;
  }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    std::unique_ptr<WritableFile> base;
    Status s = target()->NewWritableFile(fname, &base);
    if (s.ok()) {
      result->reset(new TracingWritableFile(std::move(base), fname));
    }
    return s;
  }
};

}  // namespace

std::unique_ptr<Env> NewIOTracingEnv(Env* base) {
  return std::make_unique<IOTracingEnv>(base);
}

}  // namespace shield
