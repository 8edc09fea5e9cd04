#ifndef SHIELD_UTIL_PERF_CONTEXT_H_
#define SHIELD_UTIL_PERF_CONTEXT_H_

#include <cstdint>
#include <string>

#include "util/clock.h"

namespace shield {

/// How much per-operation accounting the calling thread wants.
/// Counts (bytes, ops) are cheap thread-local adds and are kept at
/// kEnableCount and above; wall-clock timers cost two clock reads per
/// probe and only run at kEnableTime.
enum class PerfLevel : int {
  kDisable = 0,
  kEnableCount = 1,  // default: byte/op counters only
  kEnableTime = 2,   // counters + scoped timers
};

void SetPerfLevel(PerfLevel level);
PerfLevel GetPerfLevel();

/// Thread-local accumulator of per-operation micro-costs. A reader
/// thread calls GetPerfContext()->Reset() before an operation, then
/// inspects the fields after: a Get() decomposes into memtable probe,
/// block reads, decryption, block MAC verification, and (on a DEK-cache
/// miss) KDS wait. The same fields sum — across all threads — to the
/// matching global Statistics tickers, which is what statistics_test
/// cross-checks.
struct PerfContext {
  // Block reads (physical SST reads that missed the block cache).
  uint64_t block_read_count = 0;
  uint64_t block_read_bytes = 0;
  uint64_t block_read_micros = 0;
  uint64_t block_cache_hit_count = 0;

  // Read-path prefetching and MultiGet batching.
  uint64_t readahead_bytes = 0;      // speculatively fetched ahead
  uint64_t readahead_hit_count = 0;  // reads served from the buffer
  uint64_t multiget_keys = 0;        // keys asked via MultiGet
  uint64_t multiget_batches = 0;     // coalesced multi-block fetches

  // Crypto work done on behalf of this thread's operation.
  uint64_t encrypt_bytes = 0;
  uint64_t encrypt_micros = 0;
  uint64_t decrypt_bytes = 0;
  uint64_t decrypt_micros = 0;
  // Block MACs (HMAC-SHA256 or GHASH, whichever the file's format
  // names): tags produced for writing, tags checked, and time in both.
  uint64_t hmac_compute_count = 0;
  uint64_t hmac_verify_count = 0;
  uint64_t hmac_micros = 0;

  // Iterator positioning (Seek/SeekToFirst/SeekToLast on DB iterators).
  uint64_t iter_seek_count = 0;
  uint64_t iter_seek_micros = 0;

  // Key plane.
  uint64_t kds_request_count = 0;
  uint64_t kds_wait_micros = 0;

  // Write path.
  uint64_t memtable_insert_micros = 0;
  uint64_t wal_write_micros = 0;
  uint64_t write_stall_micros = 0;
  // Group commit: size of the batch group this thread led (leaders
  // only; followers leave it 0).
  uint64_t write_group_size = 0;
  // Always 0: the WAL is encrypted inline, so nothing waits on
  // precomputed keystream. Kept because perfbench reports it.
  uint64_t wal_keystream_stall_micros = 0;

  void Reset() { *this = PerfContext(); }
  std::string ToString() const;
};

/// The calling thread's context. Never null.
PerfContext* GetPerfContext();

/// When enabled (default off, thread-local), every public DB operation
/// resets the calling thread's PerfContext on entry, so the fields read
/// after an op describe exactly that op. Off, contexts accumulate until
/// the caller resets — the historical behaviour.
void SetPerfAutoReset(bool enabled);
bool GetPerfAutoReset();

/// Called at the top of each public DB op (Get/MultiGet/Write/Seek/
/// Flush/CompactRange): applies the auto-reset policy.
inline void PerfOpBoundary() {
  if (GetPerfAutoReset()) {
    GetPerfContext()->Reset();
  }
}

/// Scoped timer adding elapsed micros to `*field` of the calling
/// thread's PerfContext — but only when the perf level is
/// kEnableTime. `field` must point into GetPerfContext().
class PerfTimer {
 public:
  explicit PerfTimer(uint64_t* field)
      : field_(GetPerfLevel() >= PerfLevel::kEnableTime ? field : nullptr),
        start_(field_ != nullptr ? NowMicros() : 0) {}

  ~PerfTimer() {
    if (field_ != nullptr) *field_ += NowMicros() - start_;
  }

  PerfTimer(const PerfTimer&) = delete;
  PerfTimer& operator=(const PerfTimer&) = delete;

 private:
  uint64_t* field_;
  uint64_t start_;
};

/// Count-level add: active at kEnableCount and above.
inline void PerfAdd(uint64_t PerfContext::*field, uint64_t delta) {
  if (GetPerfLevel() >= PerfLevel::kEnableCount) {
    GetPerfContext()->*field += delta;
  }
}

}  // namespace shield

#endif  // SHIELD_UTIL_PERF_CONTEXT_H_
