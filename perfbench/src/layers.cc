#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <vector>

namespace perfbench {

namespace {

constexpr uint64_t kMaxSpanRecords = 200000;

std::atomic<bool> g_tracing{false};
const auto g_epoch = std::chrono::steady_clock::now();

struct SpanRecord {
  uint64_t id;
  uint64_t parent;  // 0 = root
  uint64_t start_ns;
  uint64_t dur_ns;
  uint64_t bytes;
  Layer layer;
};

/// Per-thread span state. Owned by the global registry so its data
/// outlives the thread (pool threads exit when the DB closes).
struct ThreadState {
  uint32_t tid = 0;
  uint64_t next_id = 0;
  bool client = false;
  Span* current = nullptr;
  LayerTotals totals[kNumRoots][kNumLayers];
  uint64_t stack_errors = 0;
  std::vector<SpanRecord> records;
};

std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadState>> g_registry;  // guarded by mu
std::atomic<uint64_t> g_records{0};
std::atomic<uint64_t> g_dropped{0};

ThreadState* State() {
  thread_local ThreadState* state = [] {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(std::make_unique<ThreadState>());
    g_registry.back()->tid = static_cast<uint32_t>(g_registry.size());
    return g_registry.back().get();
  }();
  return state;
}

const char* LayerName(Layer layer) {
  static const char* const kNames[kNumLayers] = {
      "lsm.get",  "lsm.put",  "env.read", "env.open",  "env.append",
      "env.sync", "env.meta", "kds",      "ds.offload"};
  return kNames[layer];
}

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

class BenchSequentialFile : public shield::SequentialFile {
 public:
  explicit BenchSequentialFile(std::unique_ptr<shield::SequentialFile> target)
      : target_(std::move(target)) {}
  shield::Status Read(size_t n, shield::Slice* result,
                      char* scratch) override {
    Span span(kEnvRead);
    shield::Status s = target_->Read(n, result, scratch);
    span.AddBytes(result->size());
    return s;
  }
  shield::Status Skip(uint64_t n) override {
    Span span(kEnvMeta);
    return target_->Skip(n);
  }
  const shield::crypto::BlockAuthenticator* block_authenticator()
      const override {
    return target_->block_authenticator();
  }

 private:
  std::unique_ptr<shield::SequentialFile> target_;
};

class BenchRandomAccessFile : public shield::RandomAccessFile {
 public:
  explicit BenchRandomAccessFile(
      std::unique_ptr<shield::RandomAccessFile> target)
      : target_(std::move(target)) {}
  shield::Status Read(uint64_t offset, size_t n, shield::Slice* result,
                      char* scratch) const override {
    Span span(kEnvRead);
    shield::Status s = target_->Read(offset, n, result, scratch);
    span.AddBytes(result->size());
    return s;
  }
  shield::Status Size(uint64_t* size) const override {
    Span span(kEnvMeta);
    return target_->Size(size);
  }
  const shield::crypto::BlockAuthenticator* block_authenticator()
      const override {
    return target_->block_authenticator();
  }

 private:
  std::unique_ptr<shield::RandomAccessFile> target_;
};

class BenchWritableFile : public shield::WritableFile {
 public:
  BenchWritableFile(std::unique_ptr<shield::WritableFile> target,
                    EnvCounters* counters)
      : target_(std::move(target)), counters_(counters) {}
  shield::Status Append(const shield::Slice& data) override {
    Span span(kEnvAppend);
    span.AddBytes(data.size());
    counters_->append_bytes.fetch_add(data.size(), std::memory_order_relaxed);
    return target_->Append(data);
  }
  shield::Status Flush() override {
    Span span(kEnvMeta);
    return target_->Flush();
  }
  shield::Status Sync() override {
    Span span(kEnvSync);
    counters_->sync_calls.fetch_add(1, std::memory_order_relaxed);
    return target_->Sync();
  }
  shield::Status Close() override {
    Span span(kEnvMeta);
    return target_->Close();
  }
  uint64_t GetFileSize() const override { return target_->GetFileSize(); }
  const shield::crypto::BlockAuthenticator* block_authenticator()
      const override {
    return target_->block_authenticator();
  }

 private:
  std::unique_ptr<shield::WritableFile> target_;
  EnvCounters* counters_;
};

}  // namespace

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - g_epoch)
          .count());
}

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
void MarkClientThread() { State()->client = true; }

Span::Span(Layer layer)
    : layer_(layer), active_(g_tracing.load(std::memory_order_relaxed)) {
  if (!active_) return;
  ThreadState* st = State();
  parent_ = st->current;
  if (parent_ != nullptr) {
    root_ = parent_->root_;
  } else if (st->client && layer == kGet) {
    root_ = kUnderGet;
  } else if (st->client && layer == kPut) {
    root_ = kUnderPut;
  }
  id_ = (uint64_t(st->tid) << 40) | ++st->next_id;
  st->current = this;
  start_ = NowNanos();
}

Span::~Span() {
  if (!active_) return;
  const uint64_t dur = NowNanos() - start_;
  ThreadState* st = State();
  if (st->current != this || child_ns_ > dur) ++st->stack_errors;
  st->current = parent_;
  if (parent_ != nullptr) parent_->child_ns_ += dur;
  LayerTotals& t = st->totals[root_][layer_];
  ++t.count;
  t.total_ns += dur;
  t.self_ns += dur - std::min(child_ns_, dur);
  t.bytes += bytes_;
  if (g_records.fetch_add(1, std::memory_order_relaxed) < kMaxSpanRecords) {
    st->records.push_back(SpanRecord{id_, parent_ ? parent_->id_ : 0, start_,
                                     dur, bytes_, layer_});
  } else {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

void CollectTotals(LayerTotals out[kNumRoots][kNumLayers]) {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (int r = 0; r < kNumRoots; ++r) {
    for (int l = 0; l < kNumLayers; ++l) out[r][l] = LayerTotals();
  }
  for (const auto& st : g_registry) {
    for (int r = 0; r < kNumRoots; ++r) {
      for (int l = 0; l < kNumLayers; ++l) {
        out[r][l].count += st->totals[r][l].count;
        out[r][l].total_ns += st->totals[r][l].total_ns;
        out[r][l].self_ns += st->totals[r][l].self_ns;
        out[r][l].bytes += st->totals[r][l].bytes;
      }
    }
  }
}

uint64_t SpanStackErrors() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  uint64_t errors = 0;
  for (const auto& st : g_registry) errors += st->stack_errors;
  return errors;
}

uint64_t WriteSpans(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  FILE* f = fopen(path.c_str(), "w");
  if (f != nullptr) {
    for (const auto& st : g_registry) {
      for (const SpanRecord& r : st->records) {
        fprintf(f,
                "{\"id\":%llu,\"parent\":%llu,\"thread\":%u,\"layer\":\"%s\","
                "\"start_ns\":%llu,\"dur_ns\":%llu,\"bytes\":%llu}\n",
                (unsigned long long)r.id, (unsigned long long)r.parent,
                st->tid, LayerName(r.layer), (unsigned long long)r.start_ns,
                (unsigned long long)r.dur_ns, (unsigned long long)r.bytes);
      }
    }
    fclose(f);
  }
  return g_dropped.load(std::memory_order_relaxed);
}

// --- BenchEnv ---

shield::Status BenchEnv::NewSequentialFile(
    const std::string& f, std::unique_ptr<shield::SequentialFile>* r) {
  Span span(kEnvOpen);
  std::unique_ptr<shield::SequentialFile> file;
  shield::Status s = target()->NewSequentialFile(f, &file);
  if (s.ok()) r->reset(new BenchSequentialFile(std::move(file)));
  return s;
}

shield::Status BenchEnv::NewRandomAccessFile(
    const std::string& f, std::unique_ptr<shield::RandomAccessFile>* r) {
  Span span(kEnvOpen);
  if (State()->client && EndsWith(f, ".sst")) {
    counters_.client_sst_opens.fetch_add(1, std::memory_order_relaxed);
  }
  std::unique_ptr<shield::RandomAccessFile> file;
  shield::Status s = target()->NewRandomAccessFile(f, &file);
  if (s.ok()) r->reset(new BenchRandomAccessFile(std::move(file)));
  return s;
}

shield::Status BenchEnv::NewWritableFile(
    const std::string& f, std::unique_ptr<shield::WritableFile>* r) {
  Span span(kEnvOpen);
  std::unique_ptr<shield::WritableFile> file;
  shield::Status s = target()->NewWritableFile(f, &file);
  if (s.ok()) r->reset(new BenchWritableFile(std::move(file), &counters_));
  return s;
}

bool BenchEnv::FileExists(const std::string& f) {
  Span span(kEnvMeta);
  return target()->FileExists(f);
}

shield::Status BenchEnv::GetChildren(const std::string& dir,
                                     std::vector<std::string>* r) {
  Span span(kEnvMeta);
  return target()->GetChildren(dir, r);
}

shield::Status BenchEnv::RemoveFile(const std::string& f) {
  Span span(kEnvMeta);
  return target()->RemoveFile(f);
}

shield::Status BenchEnv::CreateDirIfMissing(const std::string& d) {
  Span span(kEnvMeta);
  return target()->CreateDirIfMissing(d);
}

shield::Status BenchEnv::RemoveDir(const std::string& d) {
  Span span(kEnvMeta);
  return target()->RemoveDir(d);
}

shield::Status BenchEnv::GetFileSize(const std::string& f, uint64_t* size) {
  Span span(kEnvMeta);
  return target()->GetFileSize(f, size);
}

shield::Status BenchEnv::RenameFile(const std::string& s,
                                    const std::string& t) {
  Span span(kEnvMeta);
  return target()->RenameFile(s, t);
}

// --- BenchKds ---

template <typename Fn>
shield::Status BenchKds::Timed(Fn&& fn) {
  Span span(kKds);
  const uint64_t start = NowNanos();
  shield::Status s = fn();
  nanos.fetch_add(NowNanos() - start, std::memory_order_relaxed);
  calls.fetch_add(1, std::memory_order_relaxed);
  return s;
}

shield::Status BenchKds::CreateDek(const std::string& server_id,
                                   shield::crypto::CipherKind kind,
                                   shield::Dek* out) {
  return Timed([&] { return target_->CreateDek(server_id, kind, out); });
}

shield::Status BenchKds::GetDek(const std::string& server_id,
                                const shield::DekId& id, shield::Dek* out) {
  return Timed([&] { return target_->GetDek(server_id, id, out); });
}

shield::Status BenchKds::DeleteDek(const std::string& server_id,
                                   const shield::DekId& id) {
  return Timed([&] { return target_->DeleteDek(server_id, id); });
}

shield::Status BenchKds::RewrapDek(const std::string& server_id,
                                   const shield::DekId& id,
                                   const std::string& target_server_id,
                                   shield::Dek* out) {
  return Timed([&] {
    return target_->RewrapDek(server_id, id, target_server_id, out);
  });
}

// --- BenchCompactionService / BenchFilterPolicy ---

shield::Status BenchCompactionService::RunCompaction(
    const shield::CompactionJobSpec& job, shield::CompactionJobResult* result) {
  Span span(kOffload);
  const uint64_t start = NowNanos();
  shield::Status s = target_->RunCompaction(job, result);
  nanos.fetch_add(NowNanos() - start, std::memory_order_relaxed);
  jobs.fetch_add(1, std::memory_order_relaxed);
  return s;
}

bool BenchFilterPolicy::KeyMayMatch(const shield::Slice& key,
                                    const shield::Slice& filter) const {
  const bool may = target_->KeyMayMatch(key, filter);
  probes.fetch_add(1, std::memory_order_relaxed);
  if (!may) useful.fetch_add(1, std::memory_order_relaxed);
  return may;
}

}  // namespace perfbench
