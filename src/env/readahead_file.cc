#include "env/readahead_file.h"

#include <algorithm>
#include <cstring>

#include "util/perf_context.h"

namespace shield {

FilePrefetchBuffer::FilePrefetchBuffer(RandomAccessFile* file,
                                       size_t initial_bytes, size_t max_bytes,
                                       Statistics* stats)
    : file_(file),
      max_bytes_(std::max(initial_bytes, max_bytes)),
      readahead_(std::max<size_t>(initial_bytes, 1)),
      stats_(stats) {}

bool FilePrefetchBuffer::TryRead(uint64_t offset, size_t n, bool stored,
                                 Slice* result, char* scratch) {
  if (n == 0) {
    *result = Slice(scratch, 0);
    return true;
  }
  if (buffer_len_ == 0 || stored != buffer_stored_ ||
      offset < buffer_offset_ || offset + n > buffer_offset_ + buffer_len_) {
    return false;
  }
  memcpy(scratch, buffer_.data() + (offset - buffer_offset_), n);
  *result = Slice(scratch, n);
  return true;
}

Status FilePrefetchBuffer::Prefetch(uint64_t offset, size_t min_n,
                                    bool stored) {
  const size_t want = std::max(readahead_, min_n);
  if (buffer_.size() < want) buffer_.resize(want);
  Slice got;
  Status s = stored ? file_->ReadStored(offset, want, &got, &buffer_[0])
                    : file_->Read(offset, want, &got, &buffer_[0]);
  if (!s.ok()) {
    buffer_len_ = 0;
    return s;
  }
  // The inner file may have returned a pointer into its own storage
  // rather than filling our scratch; keep an owned copy either way.
  if (got.data() != buffer_.data() && got.size() > 0) {
    memmove(&buffer_[0], got.data(), got.size());
  }
  buffer_offset_ = offset;
  buffer_len_ = got.size();  // short read near EOF keeps the prefix
  buffer_stored_ = stored;
  RecordTick(stats_, Tickers::kIoReadaheadBytes, buffer_len_);
  PerfAdd(&PerfContext::readahead_bytes, buffer_len_);
  // Sequential consumption exhausted the previous window: widen it.
  if (readahead_ < max_bytes_) {
    readahead_ = std::min(max_bytes_, readahead_ * 2);
  }
  return Status::OK();
}

Status FilePrefetchBuffer::ReadWithReadahead(uint64_t offset, size_t n,
                                             bool stored, Slice* result,
                                             char* scratch) {
  if (TryRead(offset, n, stored, result, scratch)) {
    RecordTick(stats_, Tickers::kIoReadaheadHit);
    PerfAdd(&PerfContext::readahead_hit_count, 1);
    return Status::OK();
  }
  RecordTick(stats_, Tickers::kIoReadaheadMiss);
  Status s = Prefetch(offset, n, stored);
  if (s.ok() && TryRead(offset, n, stored, result, scratch)) {
    return Status::OK();
  }
  // Prefetch failed (fault injection, transient storage error) or came
  // back short of even this request (torn read, EOF): degrade to an
  // exact-size direct read so correctness never depends on the window.
  return stored ? file_->ReadStored(offset, n, result, scratch)
                : file_->Read(offset, n, result, scratch);
}

ReadaheadRandomAccessFile::ReadaheadRandomAccessFile(RandomAccessFile* file,
                                                     size_t initial, size_t max,
                                                     Statistics* stats)
    : file_(file), buffer_(file, initial, max, stats) {}

Status ReadaheadRandomAccessFile::Read(uint64_t offset, size_t n, Slice* result,
                                       char* scratch) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buffer_.ReadWithReadahead(offset, n, /*stored=*/false, result,
                                  scratch);
}

Status ReadaheadRandomAccessFile::ReadStored(uint64_t offset, size_t n,
                                             Slice* result,
                                             char* scratch) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buffer_.ReadWithReadahead(offset, n, /*stored=*/true, result,
                                  scratch);
}

Status ReadaheadRandomAccessFile::Size(uint64_t* size) const {
  return file_->Size(size);
}

}  // namespace shield
