#include "shield/dek_manager.h"

#include <cstdint>
#include <vector>

#include "env/env.h"
#include "util/clock.h"
#include "util/perf_context.h"
#include "util/retry.h"
#include "util/trace.h"

namespace shield {

namespace {

/// KDS round-trips ride out transient failures and short outages here
/// (~8 attempts, capped exponential backoff; worst case a few hundred
/// ms). A decentralized KDS is the paper's availability requirement,
/// so brief unavailability must not fail recovery, reads, or flushes.
const RetryPolicy& KdsRetryPolicy() {
  static const RetryPolicy policy = [] {
    RetryPolicy p;
    p.max_attempts = 8;
    p.initial_backoff_micros = 500;
    p.max_backoff_micros = 50 * 1000;
    return p;
  }();
  return policy;
}

}  // namespace

DekManager::DekManager(Kds* kds, std::string server_id,
                       SecureDekCache* secure_cache, Statistics* stats)
    : kds_(kds), server_id_(std::move(server_id)),
      secure_cache_(secure_cache), stats_(stats) {}

uint64_t DekManager::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return memory_.size();
}

Status DekManager::KdsRoundTrip(const char* op_name,
                                const std::function<Status()>& op) {
  kds_requests_.fetch_add(1, std::memory_order_relaxed);
  RecordTick(stats_, Tickers::kKdsRequests, 1);
  PerfAdd(&PerfContext::kds_request_count, 1);
  uint64_t elapsed = 0;
  int attempts = 1;
  Status s;
  {
    TraceSpan span(SpanType::kKdsRpc, Slice(op_name));
    StopWatch watch(stats_, Histograms::kKdsLatencyMicros, &elapsed);
    s = RunWithRetry(KdsRetryPolicy(), op, &attempts);
    span.SetArgs(static_cast<uint64_t>(attempts), 0);
    span.MarkStatus(s);
  }
  if (attempts > 1) {
    RecordTick(stats_, Tickers::kKdsRetries,
               static_cast<uint64_t>(attempts - 1));
  }
  if (!s.ok()) {
    RecordTick(stats_, Tickers::kKdsFailures, 1);
  }
  PerfAdd(&PerfContext::kds_wait_micros, elapsed);
  if (event_logger_ != nullptr && event_logger_->enabled()) {
    JsonWriter w = event_logger_->NewEvent("kds_lookup");
    w.Add("op", op_name);
    w.Add("ok", s.ok());
    w.Add("attempts", attempts);
    w.Add("micros", elapsed);
    if (!s.ok()) {
      w.Add("error", s.ToString());
    }
    event_logger_->Emit(&w);
  }
  return s;
}

Status DekManager::CreateDek(crypto::CipherKind kind, Dek* out) {
  Status s = KdsRoundTrip(
      "create", [&] { return kds_->CreateDek(server_id_, kind, out); });
  if (!s.ok()) {
    return s;
  }
  RecordTick(stats_, Tickers::kShieldDekCreated, 1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    memory_[out->id] = *out;
    created_micros_[out->id] = NowMicros();
  }
  if (secure_cache_ != nullptr) {
    // Best effort: a failed cache write costs a KDS round-trip later
    // but is not fatal.
    secure_cache_->Put(*out);
  }
  return Status::OK();
}

void DekManager::AdoptDek(const Dek& dek) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    memory_[dek.id] = dek;
    created_micros_[dek.id] = NowMicros();
  }
  if (secure_cache_ != nullptr) {
    // Best effort, as in CreateDek: a failed cache write costs a KDS
    // round-trip later but is not fatal.
    secure_cache_->Put(dek);
  }
}

Status DekManager::ResolveDek(const DekId& id, Dek* out) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = memory_.find(id);
    if (it != memory_.end()) {
      *out = it->second;
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      RecordTick(stats_, Tickers::kShieldDekCacheHit, 1);
      return Status::OK();
    }
  }
  if (secure_cache_ != nullptr && secure_cache_->Get(id, out).ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    memory_[id] = *out;
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    RecordTick(stats_, Tickers::kShieldDekCacheHit, 1);
    return Status::OK();
  }
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  RecordTick(stats_, Tickers::kShieldDekCacheMiss, 1);
  Status s =
      KdsRoundTrip("get", [&] { return kds_->GetDek(server_id_, id, out); });
  if (!s.ok()) {
    return s;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    memory_[id] = *out;
  }
  if (secure_cache_ != nullptr) {
    secure_cache_->Put(*out);
  }
  return Status::OK();
}

Status DekManager::ForgetDek(const DekId& id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (memory_.erase(id) > 0) {
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    created_micros_.erase(id);
  }
  if (secure_cache_ != nullptr) {
    secure_cache_->Erase(id);
  }
  RecordTick(stats_, Tickers::kShieldDekDestroyed, 1);
  Status s =
      KdsRoundTrip("delete", [&] { return kds_->DeleteDek(server_id_, id); });
  if (s.IsNotFound()) {
    // Another server (e.g. the compaction worker) may have owned the
    // deletion; dropping a missing DEK is success.
    return Status::OK();
  }
  if (!s.ok()) {
    // The key is already unreachable locally but still alive in the
    // KDS. Callers on the file-deletion path ignore this status, so a
    // transient KDS failure used to leak the DEK forever; queue it and
    // let a background drain finish the destruction.
    EnqueuePendingDelete(id);
    return Status::OK();
  }
  return s;
}

Status DekManager::RewrapDek(const DekId& id,
                             const std::string& target_server_id, Dek* out) {
  return KdsRoundTrip("rewrap", [&] {
    return kds_->RewrapDek(server_id_, id, target_server_id, out);
  });
}

void DekManager::EnqueuePendingDelete(const DekId& id) {
  RecordTick(stats_, Tickers::kShieldDekDeleteDeferred, 1);
  std::lock_guard<std::mutex> lock(pending_mu_);
  if (pending_.insert(id).second) {
    PersistPendingLocked();
  }
}

void DekManager::PersistPendingLocked() {
  if (pending_env_ == nullptr || pending_path_.empty()) {
    return;
  }
  std::string data;
  for (const DekId& id : pending_) {
    data.append(id.ToHex());
    data.push_back('\n');
  }
  // Best effort, atomically: a torn queue file must never be read back
  // as a valid id, and a failed persist only costs re-deleting an
  // already-deleted DEK (NotFound == success) after a crash.
  ReplaceFileAtomically(pending_env_, data, pending_path_ + ".tmp",
                        pending_path_);
}

Status DekManager::ConfigurePendingDeletes(Env* env, const std::string& path) {
  std::lock_guard<std::mutex> lock(pending_mu_);
  pending_env_ = env;
  pending_path_ = path;
  if (!env->FileExists(path)) {
    return Status::OK();
  }
  std::string data;
  Status s = ReadFileToString(env, path, &data);
  if (!s.ok()) {
    return s;
  }
  size_t start = 0;
  while (start < data.size()) {
    size_t end = data.find('\n', start);
    if (end == std::string::npos) {
      end = data.size();
    }
    const std::string line = data.substr(start, end - start);
    DekId id;
    if (!line.empty() && DekId::FromHex(line, &id)) {
      pending_.insert(id);
    }
    start = end + 1;
  }
  return Status::OK();
}

Status DekManager::TryDrainPendingDeletes() {
  std::vector<DekId> batch;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    batch.assign(pending_.begin(), pending_.end());
  }
  Status last;
  bool changed = false;
  for (const DekId& id : batch) {
    Status s = KdsRoundTrip(
        "delete", [&] { return kds_->DeleteDek(server_id_, id); });
    if (s.ok() || s.IsNotFound()) {
      std::lock_guard<std::mutex> lock(pending_mu_);
      changed |= pending_.erase(id) > 0;
    } else {
      last = s;
    }
  }
  if (changed) {
    std::lock_guard<std::mutex> lock(pending_mu_);
    PersistPendingLocked();
  }
  return last;
}

uint64_t DekManager::pending_deletes() const {
  std::lock_guard<std::mutex> lock(pending_mu_);
  return pending_.size();
}

uint64_t DekManager::DekAgeMicros(const DekId& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = created_micros_.find(id);
  if (it == created_micros_.end()) {
    return UINT64_MAX;
  }
  const uint64_t now = NowMicros();
  return now > it->second ? now - it->second : 0;
}

}  // namespace shield
