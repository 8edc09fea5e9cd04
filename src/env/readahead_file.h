#ifndef SHIELD_ENV_READAHEAD_FILE_H_
#define SHIELD_ENV_READAHEAD_FILE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "env/env.h"
#include "util/statistics.h"

namespace shield {

/// A prefetch window over a logical (already-decrypted) random-access
/// file. One storage round trip fills a large aligned span; subsequent
/// reads inside the span are served from memory. On disaggregated
/// storage every skipped round trip saves an RTT, which is the whole
/// point (paper Section 6: the read path dominates fabric traffic).
///
/// Honest under fault injection: a short or failed prefetch keeps any
/// genuine prefix it got and degrades the missing part to an exact
/// per-request read — it never fabricates bytes and never double
/// counts the hit/miss tickers for one request.
///
/// Not thread safe; the owning wrapper serializes access.
class FilePrefetchBuffer {
 public:
  /// Readahead grows from `initial_bytes` toward `max_bytes`, doubling
  /// each time the window is exhausted by forward reads (LevelDB's
  /// sequential-scan heuristic).
  FilePrefetchBuffer(RandomAccessFile* file, size_t initial_bytes,
                     size_t max_bytes, Statistics* stats);

  /// Serves [offset, offset+n) from the buffer if fully resident.
  bool TryRead(uint64_t offset, size_t n, Slice* result, char* scratch);

  /// Fills the window starting at `offset` with up to `readahead_`
  /// bytes (at least `min_n`). Short reads keep the genuine prefix.
  Status Prefetch(uint64_t offset, size_t min_n);

  /// TryRead, else Prefetch + TryRead, else direct file read. This is
  /// the one entry point the wrapper calls; it owns all ticker and
  /// PerfContext accounting for the request.
  Status ReadWithReadahead(uint64_t offset, size_t n, Slice* result,
                           char* scratch);

  size_t readahead_bytes() const { return readahead_; }

 private:
  RandomAccessFile* file_;
  const size_t max_bytes_;
  size_t readahead_;
  Statistics* stats_;

  std::string buffer_;      // owned copy: the inner file may return
                            // pointers into its own storage (MemEnv)
  uint64_t buffer_offset_ = 0;
  size_t buffer_len_ = 0;
};

/// RandomAccessFile decorator adding readahead. Wraps the logical view
/// (decryption happens underneath in the encrypted-file core), so the
/// buffer holds plaintext and block verification downstream still sees
/// what it expects. Read() is const in the interface but mutates the
/// prefetch window, so a mutex serializes callers; intended use is one
/// iterator per wrapper, where contention is zero.
class ReadaheadRandomAccessFile : public RandomAccessFile {
 public:
  /// Does not take ownership: `file` (typically a Table's logical
  /// file) must outlive the wrapper. `initial`/`max` bound the
  /// doubling window; `stats` may be null.
  ReadaheadRandomAccessFile(RandomAccessFile* file, size_t initial, size_t max,
                            Statistics* stats);

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override;

  Status Size(uint64_t* size) const override;

  const crypto::BlockAuthenticator* block_authenticator() const override {
    return file_->block_authenticator();
  }

 private:
  RandomAccessFile* file_;
  mutable std::mutex mutex_;
  mutable FilePrefetchBuffer buffer_;
};

/// Default window bounds used by table iterators and compaction when
/// the caller gives only an on/off size knob.
constexpr size_t kDefaultReadaheadInitial = 16 * 1024;

}  // namespace shield

#endif  // SHIELD_ENV_READAHEAD_FILE_H_
