#ifndef SHIELD_UTIL_STATISTICS_H_
#define SHIELD_UTIL_STATISTICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "util/clock.h"
#include "util/histogram.h"
#include "util/metrics.h"

namespace shield {

/// Named monotonic counters. Every component of the engine reports
/// into this single flat namespace so per-component costs (crypto
/// bytes, KDS round trips, WAL/SST/compaction I/O — the paper's
/// Table 3 split) can be cross-checked against each other and against
/// the per-operation PerfContext. Names are dotted and stable: bench
/// JSON reports and the `shield.stats` property key off them.
enum class Tickers : uint32_t {
  // Physical I/O, split by file kind (fed by the counting Env).
  kIoWalReadBytes = 0,
  kIoWalWriteBytes,
  kIoWalReadOps,
  kIoWalWriteOps,
  kIoSstReadBytes,
  kIoSstWriteBytes,
  kIoSstReadOps,
  kIoSstWriteOps,
  kIoManifestReadBytes,
  kIoManifestWriteBytes,
  kIoManifestReadOps,
  kIoManifestWriteOps,
  kIoOtherReadBytes,
  kIoOtherWriteBytes,
  kIoOtherReadOps,
  kIoOtherWriteOps,

  // Read-path prefetching (env/readahead_file.h). `bytes` counts what
  // was speculatively fetched ahead; `hit` counts reads served from the
  // prefetch buffer without touching storage; `miss` counts reads that
  // had to go to the file anyway (buffer cold, or a short prefetch
  // degraded the span).
  kIoReadaheadBytes,
  kIoReadaheadHit,
  kIoReadaheadMiss,

  // LSM engine.
  kLsmFlushBytesWritten,
  kLsmCompactionBytesRead,
  kLsmCompactionBytesWritten,
  kLsmBlockCacheHit,
  kLsmBlockCacheMiss,
  // Table-cache lookups (lsm/table_cache.cc): a miss opens the SST.
  kLsmTableCacheHit,
  kLsmTableCacheMiss,
  kLsmStallMicros,
  // MultiGet batching: keys asked across all MultiGet calls, and
  // coalesced multi-block fetches issued (each batch is one storage
  // round trip that would have been several under sequential Gets).
  kLsmMultiGetKeys,
  kLsmMultiGetBatches,

  // Crypto layer (counted at the file wrappers, per direction and
  // per cipher kind).
  kCryptoBytesEncrypted,
  kCryptoBytesDecrypted,
  kCryptoAesBytes,
  kCryptoChaCha20Bytes,
  // Block MACs of either kind (v2 HMAC-SHA256, v3 GHASH): tags produced
  // for writing, tags checked (a check is not also a computation), and
  // checks that failed.
  kCryptoHmacComputed,
  kCryptoHmacVerified,
  kCryptoHmacFailures,

  // SHIELD key plane.
  kShieldDekCreated,
  kShieldDekDestroyed,
  kShieldDekCacheHit,
  kShieldDekCacheMiss,
  kShieldChunkEncryptShards,
  kShieldWalBufferDrains,

  // KDS traffic.
  kKdsRequests,
  kKdsRetries,
  kKdsFailures,

  // Disaggregated-storage fabric (simulated network).
  kDsNetworkBytes,
  kDsNetworkRequests,
  kDsNetworkWaitMicros,

  // Observability plane (util/event_logger.h, util/trace.h).
  kShieldEventsEmitted,
  kIoTraceSpans,
  kIoTraceBytes,
  kIoTraceDropped,

  // Key lifecycle: online DEK rotation (lsm/db_rotation.cc), deferred
  // KDS deletes (shield/dek_manager.cc), encrypted backup
  // (lsm/db_backup.cc).
  kShieldRotationPasses,
  kShieldRotationFilesRewritten,
  kShieldRotationBytesRewritten,
  kShieldRotationSkippedStale,
  kShieldDekDeleteDeferred,
  kShieldBackupFiles,
  kShieldBackupBytes,

  // Group commit (lsm/db_write.cc): groups committed and the writes
  // they carried.
  kLsmWriteGroups,
  kLsmWriteGroupSize,

  // WAL leakage countermeasure (lsm/log_writer.cc): padded logical
  // records and total pad overhead (envelope + zeros + block-roll
  // fill) added so on-wire record sizes come from the bucket set.
  kShieldWalPaddingRecords,
  kShieldWalPaddingBytes,

  // Bulk data lifecycle (lsm/db_ingest.cc): external SSTs ingested
  // (files/physical bytes) and range-dump output (files/physical
  // bytes, DEKs re-wrapped for the dump target identity).
  kLsmIngestFiles,
  kLsmIngestBytes,
  kShieldDumpFiles,
  kShieldDumpBytes,

  kTickerMax,  // not a ticker
};

constexpr size_t kNumTickers = static_cast<size_t>(Tickers::kTickerMax);

/// Stable dotted name for each ticker (e.g. "io.sst.write.bytes").
const char* TickerName(Tickers ticker);

/// Timer histograms (values in microseconds unless noted).
enum class Histograms : uint32_t {
  kDbGetMicros = 0,
  kDbMultiGetMicros,
  kDbWriteMicros,
  kDbSeekMicros,
  kDbFlushMicros,
  kDbCompactRangeMicros,
  kFlushMicros,
  kCompactionMicros,
  kSstReadMicros,
  kKdsLatencyMicros,
  kHistogramMax,  // not a histogram
};

constexpr size_t kNumHistograms = static_cast<size_t>(Histograms::kHistogramMax);

const char* HistogramName(Histograms histogram);

/// Process-wide metrics store: one atomic counter per ticker plus one
/// WindowedHistogram per timer. Shared by every layer that the Options
/// object reaches (Env wrapper, crypto file layers, KDS, DS fabric,
/// LSM internals), and by every DB opened with it. All methods are
/// thread safe; tickers use relaxed atomics (they are statistically
/// merged counts, not synchronization).
class Statistics {
 public:
  Statistics() {
    for (auto& t : tickers_) t.store(0, std::memory_order_relaxed);
  }

  void RecordTick(Tickers ticker, uint64_t count = 1) {
    tickers_[static_cast<size_t>(ticker)].fetch_add(count,
                                                    std::memory_order_relaxed);
  }

  uint64_t GetTickerCount(Tickers ticker) const {
    return tickers_[static_cast<size_t>(ticker)].load(
        std::memory_order_relaxed);
  }

  void MeasureTime(Histograms histogram, uint64_t micros) {
    timers_[static_cast<size_t>(histogram)].Record(micros);
  }

  /// Full-history summary of one timer.
  HistogramSnapshot GetHistogram(Histograms histogram) const {
    return timers_[static_cast<size_t>(histogram)].Snapshot(0);
  }

  /// Zeroes all tickers and clears all histograms. Not atomic across
  /// counters; meant for bench warm-up boundaries, not concurrent use.
  void Reset();

  /// Human-readable dump of every ticker and non-empty histogram.
  std::string ToString() const;

  /// Prometheus text exposition (version 0.0.4): tickers become
  /// `shield_<name>_total` counters labeled by subsystem (dots become
  /// underscores), in family-name order, then timers one `shield_op_latency_micros` summary
  /// family labeled by op, with 10s/1m sliding-window gauges. Every
  /// sample also carries `node` when it is not empty. The DB serves it,
  /// under its Options::node_name and followed by its own gauges, as
  /// GetProperty("shield.metrics").
  std::string ToPrometheusText(const std::string& node) const;

 private:
  std::atomic<uint64_t> tickers_[kNumTickers];
  WindowedHistogram timers_[kNumHistograms];
};

/// Null-safe helpers so call sites do not have to test for a
/// configured statistics object.
inline void RecordTick(Statistics* stats, Tickers ticker, uint64_t count = 1) {
  if (stats != nullptr) stats->RecordTick(ticker, count);
}

inline void MeasureTime(Statistics* stats, Histograms histogram,
                        uint64_t micros) {
  if (stats != nullptr) stats->MeasureTime(histogram, micros);
}

/// Scoped timer feeding a histogram (and optionally an elapsed-micros
/// out-param). Reads the process clock (util/clock.h), so under the
/// deterministic simulator it measures virtual time. No-ops entirely
/// when `stats` is null and `elapsed` is null.
class StopWatch {
 public:
  StopWatch(Statistics* stats, Histograms histogram,
            uint64_t* elapsed = nullptr)
      : stats_(stats),
        histogram_(histogram),
        elapsed_(elapsed),
        start_(stats != nullptr || elapsed != nullptr ? NowMicros() : 0) {}

  ~StopWatch() {
    if (stats_ == nullptr && elapsed_ == nullptr) return;
    uint64_t micros = NowMicros() - start_;
    if (elapsed_ != nullptr) *elapsed_ = micros;
    if (stats_ != nullptr) stats_->MeasureTime(histogram_, micros);
  }

  StopWatch(const StopWatch&) = delete;
  StopWatch& operator=(const StopWatch&) = delete;

 private:
  Statistics* stats_;
  Histograms histogram_;
  uint64_t* elapsed_;
  uint64_t start_;
};

/// Factory matching the RocksDB idiom: Options::statistics =
/// CreateDBStatistics().
std::shared_ptr<Statistics> CreateDBStatistics();

}  // namespace shield

#endif  // SHIELD_UTIL_STATISTICS_H_
