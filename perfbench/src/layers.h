// Measurement seams the benchmark puts around the public interfaces the
// DB calls out through: Env (and its files), Kds, CompactionService,
// FilterPolicy and EventListener. Nothing here lives in the library.
//
// Counters (bytes appended, syncs, .sst opens on the client thread,
// KDS calls, offloaded jobs, filter probes, flush/compaction summaries)
// are always kept. Spans are kept only while `SetTracing(true)`: each records its
// layer, start, duration, bytes and parent. The parent is the innermost
// open span on the same thread, so an Env read under a Get is the Get's
// child, and a read on a flush or compaction thread is a background
// root. Per-thread aggregates give each layer's self time (duration
// minus the time its children cover) split by root kind.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "env/env.h"
#include "kds/kds.h"
#include "lsm/compaction_service.h"
#include "lsm/error_handler.h"
#include "lsm/filter_policy.h"

namespace perfbench {

/// Nanoseconds on the steady clock since the process started.
uint64_t NowNanos();

enum Layer : int {
  kGet = 0,    // DB::Get issued by the client
  kPut,        // DB::Put issued by the client
  kEnvRead,    // RandomAccessFile / SequentialFile Read
  kEnvOpen,    // New{RandomAccess,Sequential,Writable}File
  kEnvAppend,  // WritableFile::Append
  kEnvSync,    // WritableFile::Sync
  kEnvMeta,    // every other Env / file call
  kKds,        // Kds calls
  kOffload,    // CompactionService::RunCompaction
  kNumLayers,
};

/// Which operation a span ran under: the client's Get, the client's
/// Put, or none (a background root, or a client call outside both).
enum Root : int { kUnderGet = 0, kUnderPut, kUnderOther, kNumRoots };

struct LayerTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  uint64_t bytes = 0;
};

/// Turns span recording on or off for every thread.
void SetTracing(bool on);

/// Marks the calling thread as the benchmark's client thread.
void MarkClientThread();

/// Sums per-thread aggregates over every thread that recorded a span.
void CollectTotals(LayerTotals out[kNumRoots][kNumLayers]);

/// Spans whose parent finished before them (a broken stack) and spans
/// with more child time than duration; both must stay 0.
uint64_t SpanStackErrors();

/// Writes the retained span records (at most `kMaxSpanRecords`) as
/// JSON lines. Returns the number of records dropped past the cap.
uint64_t WriteSpans(const std::string& path);

/// One timed interval at a layer boundary (RAII). Inert while tracing
/// is off.
class Span {
 public:
  explicit Span(Layer layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void AddBytes(uint64_t n) { bytes_ += n; }

 private:
  Layer layer_;
  bool active_;
  Root root_ = kUnderOther;
  uint64_t start_ = 0;
  uint64_t child_ns_ = 0;
  uint64_t bytes_ = 0;
  uint64_t id_ = 0;
  Span* parent_ = nullptr;
};

/// Counters kept by BenchEnv on every run.
struct EnvCounters {
  std::atomic<uint64_t> append_bytes{0};
  std::atomic<uint64_t> sync_calls{0};
  std::atomic<uint64_t> client_sst_opens{0};  // on the client thread
};

/// Env that counts the bytes crossing it and traces every call.
class BenchEnv : public shield::EnvWrapper {
 public:
  explicit BenchEnv(shield::Env* target) : EnvWrapper(target) {}

  EnvCounters& counters() { return counters_; }

  shield::Status NewSequentialFile(
      const std::string& f,
      std::unique_ptr<shield::SequentialFile>* r) override;
  shield::Status NewRandomAccessFile(
      const std::string& f,
      std::unique_ptr<shield::RandomAccessFile>* r) override;
  shield::Status NewWritableFile(
      const std::string& f, std::unique_ptr<shield::WritableFile>* r) override;
  bool FileExists(const std::string& f) override;
  shield::Status GetChildren(const std::string& dir,
                             std::vector<std::string>* r) override;
  shield::Status RemoveFile(const std::string& f) override;
  shield::Status CreateDirIfMissing(const std::string& d) override;
  shield::Status RemoveDir(const std::string& d) override;
  shield::Status GetFileSize(const std::string& f, uint64_t* size) override;
  shield::Status RenameFile(const std::string& s,
                            const std::string& t) override;

 private:
  EnvCounters counters_;
};

/// Kds that counts and times every call.
class BenchKds : public shield::Kds {
 public:
  explicit BenchKds(std::shared_ptr<shield::Kds> target)
      : target_(std::move(target)) {}

  shield::Status CreateDek(const std::string& server_id,
                           shield::crypto::CipherKind kind,
                           shield::Dek* out) override;
  shield::Status GetDek(const std::string& server_id, const shield::DekId& id,
                        shield::Dek* out) override;
  shield::Status DeleteDek(const std::string& server_id,
                           const shield::DekId& id) override;
  shield::Status RewrapDek(const std::string& server_id,
                           const shield::DekId& id,
                           const std::string& target_server_id,
                           shield::Dek* out) override;

  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> nanos{0};

 private:
  template <typename Fn>
  shield::Status Timed(Fn&& fn);
  std::shared_ptr<shield::Kds> target_;
};

/// CompactionService that counts and times offloaded jobs.
class BenchCompactionService : public shield::CompactionService {
 public:
  explicit BenchCompactionService(shield::CompactionService* target)
      : target_(target) {}

  shield::Status RunCompaction(const shield::CompactionJobSpec& job,
                               shield::CompactionJobResult* result) override;

  std::atomic<uint64_t> jobs{0};
  std::atomic<uint64_t> nanos{0};

 private:
  shield::CompactionService* target_;
};

/// FilterPolicy that counts probes and the probes it answers "absent".
class BenchFilterPolicy : public shield::FilterPolicy {
 public:
  explicit BenchFilterPolicy(const shield::FilterPolicy* target)
      : target_(target) {}

  const char* Name() const override { return target_->Name(); }
  void CreateFilter(const shield::Slice* keys, int n,
                    std::string* dst) const override {
    target_->CreateFilter(keys, n, dst);
  }
  bool KeyMayMatch(const shield::Slice& key,
                   const shield::Slice& filter) const override;

  mutable std::atomic<uint64_t> probes{0};
  mutable std::atomic<uint64_t> useful{0};

 private:
  const shield::FilterPolicy* target_;
};

/// Sums flush and compaction summaries. Callbacks run under the DB
/// mutex, so they only add to atomics.
class BenchListener : public shield::EventListener {
 public:
  void OnFlushCompleted(const shield::FlushJobInfo& info) override {
    flushes.fetch_add(1, std::memory_order_relaxed);
    flush_us.fetch_add(info.micros, std::memory_order_relaxed);
  }
  void OnCompactionCompleted(const shield::CompactionJobInfo& info) override {
    compactions.fetch_add(1, std::memory_order_relaxed);
    compaction_us.fetch_add(info.micros, std::memory_order_relaxed);
    compaction_bytes_written.fetch_add(info.bytes_written,
                                       std::memory_order_relaxed);
  }

  std::atomic<uint64_t> flushes{0};
  std::atomic<uint64_t> flush_us{0};
  std::atomic<uint64_t> compactions{0};
  std::atomic<uint64_t> compaction_us{0};
  std::atomic<uint64_t> compaction_bytes_written{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
