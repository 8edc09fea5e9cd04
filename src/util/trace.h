#ifndef SHIELD_UTIL_TRACE_H_
#define SHIELD_UTIL_TRACE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "util/slice.h"
#include "util/statistics.h"
#include "util/status.h"

namespace shield {

class Env;

/// Span taxonomy: each value names one pipeline stage the paper
/// attributes cost to (WAL buffer copies, chunked SST encryption,
/// DEK-cache lookups, fabric round trips, …). Values are persisted in
/// trace files — append only, never renumber.
enum class SpanType : uint8_t {
  // Public DB operations (root spans on the calling thread).
  kDbGet = 0,
  kDbMultiGet,
  kDbWrite,
  kDbSeek,
  kDbFlush,
  kDbCompactRange,

  // Background jobs (root spans on background threads).
  kFlushJob,
  kCompactionJob,
  kScrubPass,
  kRecovery,

  // LSM internals.
  kWalAppend,
  kWalRoll,
  kBlockRead,

  // Crypto pipeline.
  kFileEncrypt,
  kFileDecrypt,
  kChunkEncrypt,
  kChunkShard,

  // Key plane.
  kKdsRpc,

  // Disaggregated-storage fabric.
  kDsTransfer,
  kReplicaFetch,
  kOffloadRpc,
  kCompactionRpc,

  // Physical I/O (env/trace_env.h). `aux` carries the cipher kind.
  kIoRead,
  kIoWrite,
  kIoSync,

  // Key lifecycle (append-only: values are persisted in trace files).
  kRotationPass,
  kBackup,

  // No longer emitted (WAL chunks are traced as kFileEncrypt); kept so
  // traces that recorded it still decode.
  kWalEncrypt,

  kMaxSpanType,  // not a type
};

constexpr size_t kNumSpanTypes = static_cast<size_t>(SpanType::kMaxSpanType);

/// Stable dotted name, e.g. "db.get", "io.read", "kds.rpc".
const char* SpanTypeName(SpanType type);

/// SpanRecord::flags bits.
constexpr uint8_t kSpanFlagError = 0x1;

/// One completed span, as serialized into the binary trace file.
/// `a`/`b` are type-specific arguments (offset/length for I/O spans,
/// byte counts for jobs, key counts for MultiGet); `aux` is a small
/// type-specific tag (cipher kind for I/O spans). `label` is a short
/// bounded string (file name for I/O spans).
struct SpanRecord {
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = root
  uint64_t thread_id = 0;  // process-local sequential id
  uint64_t start_micros = 0;
  uint64_t duration_micros = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  SpanType type = SpanType::kMaxSpanType;
  uint8_t flags = 0;
  uint8_t aux = 0;
  std::string label;
};

struct TraceOptions {
  /// Records buffered per thread before a drain to the trace file.
  size_t per_thread_buffer = 1024;
  /// Labels longer than this are truncated (bound per-record size).
  size_t max_label_size = 256;
  /// Node identity stamped into the trace-file header (format v2).
  /// Empty: a v1 header is written (single-node trace, old tools).
  std::string node_name;
  /// Exclusive tracers claim the process-global slot: every span on
  /// every thread lands in them, and a second Start() returns Busy —
  /// the historical single-trace mode. Non-exclusive tracers receive
  /// only spans from threads bound to them via ScopedTracerBinding,
  /// so one process can trace many nodes into per-node files (the
  /// simulated cluster).
  bool exclusive = true;
  /// When non-null, DB::StartTrace writes the trace file through this
  /// env instead of the DB's physical env (the simulator points this
  /// at the zero-cost backing store so tracing never perturbs virtual
  /// time). Ignored by Tracer::Start itself, which always receives an
  /// explicit env.
  Env* trace_env = nullptr;
};

/// Cross-node span propagation context: enough to parent a span
/// created on another node (offload worker, replica, storage server)
/// to the dispatching DB operation. Span ids are process-global, so a
/// parent id resolves unambiguously across per-node trace files.
struct TraceContext {
  /// Id of the originating trace session (0 = none active).
  uint64_t trace_id = 0;
  /// Innermost open span at capture time (0 = root).
  uint64_t parent_span_id = 0;

  bool valid() const { return trace_id != 0; }
};

/// Records spans into a binary trace file through lock-free-on-the-hot-
/// path per-thread buffers: Record() appends to the calling thread's
/// private buffer (no shared lock), which is drained to the file — in
/// batches, under a single file mutex — when full, and fully at Stop().
///
/// One trace can be active per process at a time (spans are recorded
/// from layers that have no DB pointer: crypto wrappers, the KDS
/// client, the network simulator). DB::StartTrace/EndTrace own the
/// handle; deep layers reach the active trace via the static fast path
/// (one relaxed atomic load when idle).
class Tracer {
 public:
  Tracer();
  ~Tracer();  // implies Stop()

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens `path` via `env` and activates this tracer. Exclusive
  /// tracers (TraceOptions::exclusive, the default) claim the
  /// process-global slot and fail with Busy if another exclusive
  /// tracer is active; non-exclusive tracers activate privately and
  /// receive spans only from bound threads. `stats` (optional)
  /// receives io.trace.* tickers.
  Status Start(Env* env, const std::string& path, const TraceOptions& options,
               Statistics* stats = nullptr);

  /// Deactivates, drains every thread buffer, and closes the file.
  /// Idempotent; returns the first write error seen over the trace's
  /// lifetime (best effort — tracing never fails the DB).
  Status Stop();

  bool active() const;

  uint64_t spans_recorded() const;
  uint64_t spans_dropped() const;

  /// True when any tracer is active — the hot-path gate.
  static bool AnyActive();

  /// Records a completed span into the active trace (no-op when
  /// inactive). Fills record.span_id if zero.
  static void Record(SpanRecord* record);

  /// Allocates a span id from the active trace (0 when inactive).
  static uint64_t NextSpanId();

  /// The innermost open TraceSpan's id on this thread (0 = none).
  /// Captured by code that hops threads (e.g. the chunk-encryption
  /// pool) to parent the hopped work explicitly.
  static uint64_t CurrentSpanId();

  /// Snapshot of this thread's tracing context for cross-node
  /// propagation: {active session id, innermost open span}. All zero
  /// when no trace is active on this thread.
  static TraceContext CurrentContext();

  /// This tracer's session id (0 before Start).
  uint64_t trace_id() const;

  /// Implementation detail, public only so the file-local machinery in
  /// trace.cc can name it; not part of the API.
  struct Core;

 private:
  friend class TraceSpan;
  friend class ScopedTracerBinding;
  std::shared_ptr<Core> core_;
};

/// Binds the calling thread to `tracer` for the binding's lifetime:
/// spans recorded on this thread go to the bound tracer instead of the
/// process-global one. Used at node entry points (DB public ops and
/// background jobs, the offload worker's RunCompaction) so one process
/// can write per-node trace files. Nestable (restores the previous
/// binding); a null tracer is a no-op.
class ScopedTracerBinding {
 public:
  explicit ScopedTracerBinding(Tracer* tracer);
  ~ScopedTracerBinding();

  ScopedTracerBinding(const ScopedTracerBinding&) = delete;
  ScopedTracerBinding& operator=(const ScopedTracerBinding&) = delete;

 private:
  bool bound_ = false;
  std::shared_ptr<Tracer::Core> prev_;
};

/// RAII span: captures start on construction, duration on destruction,
/// and records via Tracer::Record. Near-zero cost when no trace is
/// active (single relaxed atomic load). Nested spans on one thread are
/// parented automatically; cross-thread work passes an explicit parent.
class TraceSpan {
 public:
  explicit TraceSpan(SpanType type) : TraceSpan(type, Slice()) {}
  TraceSpan(SpanType type, const Slice& label);
  /// Explicit parent (cross-thread propagation). Pass parent = 0 for a
  /// detached root span.
  TraceSpan(SpanType type, uint64_t parent, const Slice& label);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void SetArgs(uint64_t a, uint64_t b) {
    if (active_) {
      record_.a = a;
      record_.b = b;
    }
  }
  void SetAux(uint8_t aux) {
    if (active_) {
      record_.aux = aux;
    }
  }
  void SetError() {
    if (active_) {
      record_.flags |= kSpanFlagError;
    }
  }
  /// Flags the span as errored when `s` is a failure (NotFound on read
  /// paths is an answer, not an error; callers filter before calling).
  void MarkStatus(const Status& s) {
    if (active_ && !s.ok()) {
      record_.flags |= kSpanFlagError;
    }
  }

  /// This span's id for explicit cross-thread parenting (0 when no
  /// trace is active).
  uint64_t id() const { return active_ ? record_.span_id : 0; }
  bool active() const { return active_; }

 private:
  bool active_;
  SpanRecord record_;
};

/// Trace file constants (shared with tools/trace_replay). Version 1:
/// magic | fixed32 version | fixed64 start_micros | records. Version 2
/// adds `varint32 node_len | node bytes` after start_micros (written
/// when TraceOptions::node_name is set); record encoding is identical.
constexpr char kTraceMagic[] = "SHTRACE1";  // 8 bytes, no NUL on disk
constexpr size_t kTraceMagicSize = 8;
constexpr uint32_t kTraceFormatVersion = 1;
constexpr uint32_t kTraceFormatVersionNode = 2;

/// Serializes one record: varint32 payload length | payload |
/// fixed32 crc32c(payload). Exposed for tests.
void EncodeSpanRecord(const SpanRecord& record, std::string* out);

/// Reads a trace file front to back. Damage tolerant: a truncated or
/// torn tail (short record, CRC mismatch, garbage) ends iteration with
/// truncated() == true and every record before the damage returned.
class TraceReader {
 public:
  /// Loads `path` through `env`. Fails only if the file cannot be read
  /// or the header is not a SHIELD trace.
  static Status Open(Env* env, const std::string& path,
                     std::unique_ptr<TraceReader>* out);

  /// Advances to the next record; false at end (clean or truncated).
  bool Next(SpanRecord* record);

  bool truncated() const { return truncated_; }
  /// First parse problem encountered (OK when the file ended cleanly).
  const Status& parse_status() const { return parse_status_; }
  uint64_t records_read() const { return records_read_; }
  uint64_t trace_start_micros() const { return trace_start_micros_; }
  /// Node name from a v2 header; empty for v1 traces.
  const std::string& node() const { return node_; }

 private:
  TraceReader() = default;

  std::string contents_;
  std::string node_;
  size_t pos_ = 0;
  uint64_t trace_start_micros_ = 0;
  uint64_t records_read_ = 0;
  bool truncated_ = false;
  Status parse_status_;
};

}  // namespace shield

#endif  // SHIELD_UTIL_TRACE_H_
