#ifndef SHIELD_LSM_OPTIONS_H_
#define SHIELD_LSM_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "crypto/cipher.h"
#include "kds/kds.h"
#include "util/logger.h"
#include "util/retry.h"
#include "util/statistics.h"

namespace shield {

class Comparator;
class Env;
class EventListener;
class FilterPolicy;
class Snapshot;
class CompactionService;

/// Source of authoritative raw file replicas used by the self-healing
/// scrubber. When the engine runs on disaggregated storage, the DS
/// storage service keeps a replica of every appended byte; a corrupt
/// local/primary SST can be re-fetched from it verbatim (ciphertext,
/// headers and tags included). Implemented by ds::StorageService; the
/// LSM layer only sees this interface so lsm does not depend on ds.
class FileReplicaSource {
 public:
  virtual ~FileReplicaSource() = default;

  /// Fetches the raw on-disk bytes of `fname` (the same name the
  /// engine uses). NotFound when the replica has no copy.
  virtual Status FetchFile(const std::string& fname,
                           std::string* contents) = 0;
};

/// Default auto-resume policy for transient background errors:
/// bounded attempts with exponential backoff (2ms doubling to a 64ms
/// cap — the pre-ErrorHandler hardcoded schedule).
inline RetryPolicy DefaultBackgroundResumePolicy() {
  RetryPolicy policy;
  policy.max_attempts = 20;
  policy.initial_backoff_micros = 2000;
  policy.max_backoff_micros = 64 * 1000;
  policy.multiplier = 2.0;
  return policy;
}

/// How on-disk data files are protected.
enum class EncryptionMode {
  /// Plaintext files (baseline "unencrypted RocksDB" in the paper).
  kNone,
  /// Instance-level encryption (paper Section 4): a transparent Env
  /// wrapper encrypts every file with one instance-wide DEK.
  kEncFS,
  /// SHIELD (paper Section 5): encryption embedded in the write path;
  /// unique DEK per file from the KDS, DEK rotation via compaction,
  /// buffered WAL encryption, chunked multi-threaded SST encryption,
  /// metadata-embedded DEK-IDs.
  kShield,
};

/// Compaction policies (paper Fig. 15 compares RocksDB's leveled,
/// universal and FIFO styles).
enum class CompactionStyle {
  kLeveled,
  kUniversal,
  kFifo,
};

struct EncryptionOptions {
  EncryptionMode mode = EncryptionMode::kNone;

  /// Cipher used for file payloads.
  crypto::CipherKind cipher = crypto::CipherKind::kAes128Ctr;

  /// EncFS only: the instance DEK (CipherKeySize(cipher) bytes),
  /// supplied by the operator or a KDS at startup, held only in memory.
  std::string instance_key;

  /// SHIELD only: the key-distribution service. When null, DB::Open
  /// creates a private LocalKds (monolithic deployment).
  std::shared_ptr<Kds> kds;

  /// Identity this instance presents to the KDS (authorization unit).
  std::string server_id = "compute-1";

  /// SHIELD only: when true, DEKs retrieved from the KDS are cached in
  /// an encrypted on-disk cache inside the DB directory (requires
  /// `passkey`). Eliminates KDS round-trips on restart.
  bool use_secure_dek_cache = false;

  /// Passkey protecting the secure DEK cache. Never persisted.
  std::string passkey;

  /// Evaluation-only knob (paper Table 2, "Encrypted SST" row): when
  /// false, SHIELD leaves WAL files in plaintext while still
  /// encrypting SSTs and the manifest. Never disable this in a real
  /// deployment — an unencrypted WAL exposes every recent write.
  bool encrypt_wal = true;

  /// SHIELD WAL optimization (paper Section 5.3): size of the
  /// application-managed WAL encryption buffer in bytes. Writes
  /// accumulate in plaintext in memory and are encrypted + appended
  /// once the buffer fills (or on sync). 0 disables the buffer:
  /// every WAL write is encrypted individually (the paper's
  /// non-optimized SHIELD / EncFS behaviour).
  size_t wal_buffer_size = 512;

  /// SHIELD compaction encryption: data produced by flush/compaction
  /// is encrypted in chunks of this size (paper Section 5.2 /
  /// Fig. 13).
  size_t sst_chunk_size = 4096;

  /// Number of threads used to encrypt a chunk in parallel during
  /// compaction. 1 = synchronous single-threaded encryption.
  int encryption_threads = 1;

  /// Encrypt-then-MAC: append a truncated HMAC-SHA256 tag (keyed from
  /// the file DEK) to every SST block and WAL/manifest record, verified
  /// on every read. New files are written in format v2; readers decide
  /// from each file's header, so flipping this knob never breaks
  /// existing files. Applies to kEncFS and kShield.
  bool authenticate_blocks = true;

  /// WAL record padding (leakage countermeasure): when non-empty,
  /// every logical WAL record is padded up to the smallest listed
  /// bucket size before encryption (records beyond the largest bucket
  /// round up to its next multiple), and records that would straddle a
  /// 32 KiB block edge start on a fresh block. The storage tier then
  /// observes ciphertext record sizes drawn from this small fixed set
  /// instead of a size/timing channel mirroring operation sizes
  /// (BigFoot-style WAL leakage). Padding is stripped transparently on
  /// recovery and replica catch-up; files written without padding stay
  /// readable and vice versa. Overhead is counted in the
  /// shield.wal.padding.* tickers. Example: {64, 256, 1024, 4096}.
  /// Empty (default) disables padding. Applies to WAL files only — the
  /// manifest's append cadence is not workload-correlated.
  std::vector<uint32_t> wal_padding_buckets;
};

struct Options {
  /// Ordering of user keys. Default: bytewise.
  const Comparator* comparator = nullptr;

  /// Storage environment. Default: Env::Default() (local Posix disk).
  Env* env = nullptr;

  /// Metrics registry (util/statistics.h). When set, every layer the
  /// DB touches reports into it: physical io.* traffic, lsm.* engine
  /// events, crypto.* byte counts, shield.* key-plane activity, kds.*
  /// round-trips. Dumped (with histograms) by the "shield.stats"
  /// property. Create with CreateDBStatistics(); may be shared across
  /// DB instances to aggregate.
  std::shared_ptr<Statistics> statistics;

  /// Structured info LOG. When null, DB::Open creates a rotating
  /// file-backed logger writing `LOG` inside the DB directory (through
  /// the *physical* env — the LOG is deliberately plaintext and must
  /// never receive keys or user data). Engine events are emitted into
  /// it as JSON lines (util/event_logger.h). Set to NewNullLogger() to
  /// silence logging entirely.
  std::shared_ptr<Logger> info_log;

  /// Minimum severity written to the info LOG.
  InfoLogLevel info_log_level = InfoLogLevel::kInfo;

  /// Rotate the LOG once it reaches this many bytes (0 = never).
  size_t max_log_file_size = 16 * 1024 * 1024;

  /// Rotated LOG files kept before the oldest is deleted.
  size_t keep_log_file_num = 4;

  /// Create the database if missing / error if it exists.
  bool create_if_missing = true;
  bool error_if_exists = false;

  /// Memtable size before a flush is scheduled.
  size_t write_buffer_size = 4 * 1024 * 1024;

  /// Approximate SST data-block payload size.
  size_t block_size = 4096;

  /// Capacity of the (decrypted) block cache in bytes. 0 disables it.
  size_t block_cache_size = 8 * 1024 * 1024;

  /// If non-null, SSTs carry per-block filters (e.g. from
  /// NewBloomFilterPolicy(10)) so point lookups skip block fetches —
  /// and, under SHIELD, their decryption. Not owned; must outlive the
  /// DB.
  const FilterPolicy* filter_policy = nullptr;

  /// Number of levels for leveled compaction.
  int num_levels = 7;

  /// Leveled compaction triggers.
  int level0_file_num_compaction_trigger = 4;
  int level0_slowdown_writes_trigger = 8;
  int level0_stop_writes_trigger = 12;
  uint64_t max_bytes_for_level_base = 10 * 1024 * 1024;
  double max_bytes_for_level_multiplier = 10.0;
  uint64_t target_file_size_base = 2 * 1024 * 1024;

  CompactionStyle compaction_style = CompactionStyle::kLeveled;

  /// Universal compaction: merge when the newest run is at least
  /// 1/size_ratio of the accumulated older runs; bounded by
  /// max_sorted_runs outstanding runs.
  int universal_size_ratio_percent = 100;
  int universal_max_sorted_runs = 8;

  /// FIFO compaction: drop oldest files once total size exceeds this.
  uint64_t fifo_max_table_files_size = 256 * 1024 * 1024;

  /// Background flush+compaction worker threads.
  int max_background_jobs = 2;

  /// fsync the WAL on every write (durability vs throughput).
  bool sync_wal = false;

  /// If set, compactions are shipped to this service instead of
  /// running locally (offloaded compaction in disaggregated storage;
  /// paper Section 5.6). Not owned.
  CompactionService* compaction_service = nullptr;

  /// Attempts per offloaded compaction before the job is considered
  /// failed (transient service errors are retried with backoff).
  int offload_max_attempts = 3;

  /// When offloaded compaction exhausts its attempts, run the
  /// compaction locally instead of surfacing an error. Keeps the
  /// engine making progress through storage-service outages at the
  /// cost of compute-side work.
  bool offload_fallback_to_local = true;

  /// Recovery strictness. When false (default), recovery degrades
  /// gracefully on damage that crash semantics can explain — a torn
  /// WAL tail, a truncated MANIFEST tail, an unreadable trailing log —
  /// salvaging every intact record and continuing. When true, any
  /// detected corruption aborts DB::Open with the underlying error.
  bool paranoid_checks = false;

  /// Callbacks observing background errors, recovery transitions and
  /// scrubber repairs (lsm/error_handler.h). Invoked with the DB mutex
  /// held: they must be fast and must not call back into the DB.
  std::vector<std::shared_ptr<EventListener>> listeners;

  /// Schedule for auto-resuming from *transient* background errors
  /// (flush/compaction hitting kTryAgain/kBusy). Each failing job
  /// retries after BackoffMicros until max_attempts consecutive
  /// failures, then the error escalates to read-only mode.
  RetryPolicy background_error_resume_policy = DefaultBackgroundResumePolicy();

  /// Source of authoritative raw file replicas for scrubber repair
  /// (disaggregated deployments: the DS storage service). Null = no
  /// replica; the scrubber salvages locally instead. Not owned.
  FileReplicaSource* replica_source = nullptr;

  /// Interval between background integrity-scrub passes over live
  /// SSTs. 0 (default) disables the scrub thread; DB::VerifyIntegrity
  /// still scrubs on demand.
  uint64_t scrub_interval_micros = 0;

  /// Background scrub read-rate limit in bytes/second (0 = unlimited).
  /// On-demand VerifyIntegrity is never throttled.
  uint64_t scrub_bytes_per_second = 8 * 1024 * 1024;

  /// Readahead window for compaction input files: each input is read
  /// through a prefetch buffer of up to this many (plaintext) bytes,
  /// turning per-block fetches into large sequential spans — one
  /// storage round trip per span on disaggregated storage. 0 disables
  /// compaction readahead.
  size_t compaction_readahead_size = 256 * 1024;

  /// When the scrubber finds a corrupt SST: quarantine a raw copy and
  /// repair it (replica re-fetch, else local salvage). When false the
  /// scrubber only detects and quarantines.
  bool scrub_repair = true;

  /// Interval between background DEK-rotation passes (kShield only).
  /// Each pass rewrites live SSTs whose DEK is older than
  /// max_dek_age_micros to fresh keys. 0 (default) disables the
  /// background job — DB::RotateDeks still rotates on demand, and a
  /// rotation left pending by a crash is still resumed once at open.
  uint64_t dek_rotation_interval_micros = 0;

  /// Age bound used by background rotation passes; 0 means a pass
  /// rotates every live SST (compliance "rotate now" semantics belong
  /// to explicit RotateDeks calls).
  uint64_t max_dek_age_micros = 0;

  /// Rotation rewrite throughput throttle in source-bytes/second
  /// (0 = unthrottled). Explicit RotateDeks calls may override per
  /// call via RotateOptions::bytes_per_second.
  uint64_t rotation_bytes_per_second = 8 * 1024 * 1024;

  /// Stable node identity for the cluster health plane. When set it is
  /// stamped as the `node` label on every metric the DB exports
  /// ("shield.metrics"), into trace-file headers (format v2) when a
  /// trace is started without an explicit node name, and onto health
  /// transitions. Empty (default) keeps single-node output byte-
  /// compatible with older tooling.
  std::string node_name;

  /// Wall-clock interval between background health evaluations
  /// (util/health.h). 0 (default) disables the background thread:
  /// health is still evaluated on demand by DB::EvaluateHealth and the
  /// "shield.health" property. The simulator keeps this at 0 and
  /// drives evaluations explicitly so journals stay deterministic.
  uint64_t health_interval_micros = 0;

  EncryptionOptions encryption;
};

struct ReadOptions {
  /// If non-null, read as of this snapshot.
  const Snapshot* snapshot = nullptr;
  /// Whether fetched blocks populate the block cache.
  bool fill_cache = true;
  /// If non-zero, iterators over SSTs read through a prefetch buffer
  /// that grows from 16KB up to this many bytes, serving sequential
  /// block reads from memory (env/readahead_file.h). Point Gets are
  /// unaffected. 0 (default) reads block-by-block.
  size_t readahead_size = 0;
};

struct WriteOptions {
  /// fsync the WAL before acknowledging this write.
  bool sync = false;
};

}  // namespace shield

#endif  // SHIELD_LSM_OPTIONS_H_
