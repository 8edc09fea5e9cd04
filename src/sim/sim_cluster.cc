#include "sim/sim_cluster.h"

#include <algorithm>

#include "shield/file_crypto.h"
#include "util/clock.h"

namespace shield {
namespace sim {

namespace {

// Generous virtual-time budget per driver op: every fault window the
// harness arms is far shorter than this, and backoff sleeps advance
// virtual time, so a retried op always outlives the outage. Wall-clock
// cost is negligible (virtual sleeps only yield).
RetryPolicy DriverRetryPolicy(uint64_t seed) {
  RetryPolicy p;
  p.max_attempts = 500;
  p.initial_backoff_micros = 2 * 1000;
  p.max_backoff_micros = 1000 * 1000;
  p.multiplier = 2.0;
  p.jitter = 0.5;
  p.deadline_micros = 120ull * 1000 * 1000;
  p.seed = seed ^ 0xd21fe2;
  return p;
}

// The sim wires the writer's CompactionService pointer straight at the
// worker object; a real deployment crosses the storage fabric. This
// shim charges the job-spec dispatch and the result-manifest return
// (one RTT each) to the network simulator, so the writer-side
// ds.offload_rpc span measurably exceeds the worker-side
// ds.compaction_rpc span by the fabric cost. Dispatch rides the
// control channel: it pays latency but is not subject to injected
// data-fabric faults (offload availability under partitions is the
// storage campaigns' job, and must not change under observability).
class FabricCompactionService final : public CompactionService {
 public:
  FabricCompactionService(CompactionService* target, NetworkSimulator* net)
      : target_(target), net_(net) {}

  Status RunCompaction(const CompactionJobSpec& job,
                       CompactionJobResult* result) override {
    net_->SimulateTransfer(0, /*pay_rtt=*/true);
    Status s = target_->RunCompaction(job, result);
    net_->SimulateTransfer(0, /*pay_rtt=*/true);
    return s;
  }

 private:
  CompactionService* target_;
  NetworkSimulator* net_;
};

}  // namespace

SimCluster::SimCluster(const SimClusterOptions& options)
    : options_(options),
      driver_policy_(DriverRetryPolicy(options.seed)),
      retry_rnd_(options.seed ^ 0x2e7251) {}

SimCluster::~SimCluster() {
  // Replicas first (they hold read handles into shared files), then
  // the writer, then the infrastructure members in reverse declaration
  // order.
  replicas_.clear();
  writer_.reset();
}

Options SimCluster::WriterOptions() {
  Options o;
  o.env = writer_env_.get();
  o.write_buffer_size = options_.write_buffer_size;
  o.info_log = options_.info_log;
  if (options_.observability) {
    o.node_name = "writer";
    o.statistics = CreateDBStatistics();
  }
  o.encryption.mode = EncryptionMode::kShield;
  o.encryption.wal_padding_buckets = options_.wal_padding_buckets;
  o.encryption.kds = failover_kds_ != nullptr
                         ? std::static_pointer_cast<Kds>(failover_kds_)
                         : std::static_pointer_cast<Kds>(faulty_kds_);
  o.encryption.server_id = "writer";
  o.compaction_service = fabric_compaction_.get();
  o.offload_fallback_to_local = true;
  o.replica_source = service_.get();
  // Transient storage/KDS outages must never strand the writer in
  // read-only mode mid-simulation: keep auto-resume retrying until the
  // (virtual-time) fault window has passed.
  o.background_error_resume_policy.max_attempts = 10000;
  o.background_error_resume_policy.deadline_micros = 0;
  return o;
}

Options SimCluster::ReplicaOptions(int i) {
  Options o;
  o.env = replica_envs_[i].get();
  o.write_buffer_size = options_.write_buffer_size;
  o.info_log = options_.info_log;
  if (options_.observability) {
    o.node_name = "replica-" + std::to_string(i);
    o.statistics = CreateDBStatistics();
  }
  o.encryption.mode = EncryptionMode::kShield;
  o.encryption.kds = faulty_kds_;
  o.encryption.server_id = "replica-" + std::to_string(i);
  return o;
}

Status SimCluster::Start() {
  backing_ = NewMemEnv();

  FaultInjectionOptions fopts;
  fopts.seed = options_.seed ^ 0xfa117;
  // Crash cuts must be a pure function of sync tracking, not of an
  // extra PRNG draw whose consumption depends on background-write
  // interleaving.
  fopts.torn_write_probability = 0.0;
  fault_env_ = std::make_unique<FaultInjectionEnv>(backing_.get(), fopts);
  fault_env_->SetFaultsEnabled(false);

  NetworkSimOptions net;
  net.rtt_micros = options_.network_rtt_micros;
  net.bandwidth_bytes_per_sec = options_.network_bandwidth_bytes_per_sec;
  // Probabilistic packet faults stay off: the simulator injects
  // network trouble as timed partition windows, which heal on their
  // own under virtual time (and exercise StartPartitionFor re-arming).
  service_ = std::make_unique<StorageService>(fault_env_.get(), net,
                                              /*replicate=*/true);

  writer_env_ = NewRemoteEnv(service_.get(), nullptr);
  for (int i = 0; i < options_.num_replicas; i++) {
    replica_envs_.push_back(NewRemoteEnv(service_.get(), nullptr));
  }

  SimKdsOptions kopts;
  kopts.request_latency_us = options_.kds_latency_micros;
  kopts.require_authorization = true;
  sim_kds_ = std::make_shared<SimKds>(kopts);
  sim_kds_->AuthorizeServer("writer");
  sim_kds_->AuthorizeServer("worker");
  for (int i = 0; i < options_.num_replicas; i++) {
    sim_kds_->AuthorizeServer("replica-" + std::to_string(i));
  }

  FaultyKdsOptions fkopts;
  fkopts.seed = options_.seed ^ 0x6d5;
  faulty_kds_ = std::make_shared<FaultyKds>(sim_kds_, fkopts);
  faulty_kds_->SetFaultsEnabled(false);

  event_logger_ = std::make_unique<EventLogger>(options_.info_log.get());

  if (options_.use_failover_kds) {
    // Secondary endpoint over the same key store; its fault injection
    // stays off, so a primary outage is survivable by failing over.
    FaultyKdsOptions skopts;
    skopts.seed = options_.seed ^ 0x5ec0;
    secondary_kds_ = std::make_shared<FaultyKds>(sim_kds_, skopts);
    secondary_kds_->SetFaultsEnabled(false);
    failover_kds_ = std::make_shared<FailoverKds>(
        std::vector<std::shared_ptr<Kds>>{faulty_kds_, secondary_kds_});
    failover_kds_->SetEventLogger(event_logger_.get());
  }

  if (options_.observability) {
    // Per-node tracers for the non-DB nodes. They write through the
    // raw backing store (beneath fault injection and the network sim),
    // so recording spans costs no virtual time.
    Status ts = backing_->CreateDirIfMissing(options_.trace_dir);
    if (!ts.ok()) {
      return ts;
    }
    TraceOptions topts;
    topts.exclusive = false;
    topts.node_name = "worker";
    worker_tracer_ = std::make_unique<Tracer>();
    ts = worker_tracer_->Start(backing_.get(),
                               options_.trace_dir + "/worker.trace", topts);
    if (!ts.ok()) {
      return ts;
    }
    topts.node_name = "storage";
    storage_tracer_ = std::make_unique<Tracer>();
    ts = storage_tracer_->Start(backing_.get(),
                                options_.trace_dir + "/storage.trace", topts);
    if (!ts.ok()) {
      return ts;
    }
    service_->SetTracer(storage_tracer_.get());
  }

  RemoteCompactionWorker::WorkerOptions wopts;
  wopts.env = service_->server_env();
  wopts.db_options = Options();
  wopts.db_options.env = service_->server_env();
  wopts.db_options.write_buffer_size = options_.write_buffer_size;
  wopts.db_options.info_log = options_.info_log;
  wopts.db_options.encryption.mode = EncryptionMode::kShield;
  wopts.db_options.encryption.kds = faulty_kds_;
  wopts.db_options.encryption.server_id = "worker";
  wopts.server_id = "worker";
  wopts.tracer = worker_tracer_.get();
  worker_ = std::make_unique<RemoteCompactionWorker>(wopts);
  fabric_compaction_ = std::make_unique<FabricCompactionService>(
      worker_.get(), service_->network());

  DB* raw = nullptr;
  Status s = RunOp("open-writer", [&] {
    return DB::Open(WriterOptions(), options_.db_path, &raw);
  });
  if (!s.ok()) {
    return s;
  }
  writer_.reset(raw);
  MaybeStartTrace(writer_.get(), "writer");

  // Replicas need persisted state (CURRENT + manifest) to attach to.
  s = Quiesce();
  if (!s.ok()) {
    return s;
  }
  for (int i = 0; i < options_.num_replicas; i++) {
    s = OpenReplica(i);
    if (!s.ok()) {
      return s;
    }
  }
  return Status::OK();
}

Status SimCluster::RunOp(const char* what,
                         const std::function<Status()>& op) {
  RetryContext ctx;
  ctx.rnd = &retry_rnd_;
  Status s = RunWithRetry(driver_policy_, op, nullptr, ctx);
  if (!s.ok() && event_logger_->enabled()) {
    JsonWriter w = event_logger_->NewEvent("sim_driver_op_failed");
    w.Add("op", what).Add("status", s.ToString());
    event_logger_->Emit(&w);
  }
  return s;
}

Status SimCluster::Put(const std::string& key, const std::string& value,
                       bool sync) {
  WriteOptions w;
  w.sync = sync;
  return RunOp("put", [&] { return writer_->Put(w, key, value); });
}

Status SimCluster::Delete(const std::string& key, bool sync) {
  WriteOptions w;
  w.sync = sync;
  return RunOp("delete", [&] { return writer_->Delete(w, key); });
}

Status SimCluster::FlushWriter() {
  return RunOp("flush", [&] { return writer_->Flush(); });
}

Status SimCluster::CompactAll() {
  return RunOp("compact", [&] {
    writer_->CompactRange(nullptr, nullptr);
    return Status::OK();
  });
}

Status SimCluster::Quiesce() {
  // One retried compound op: flush, drain background work, and require
  // the error handler back in "active". Any intermediate failure
  // (including a lagging auto-resume) reports TryAgain so the retry
  // loop sleeps virtual time forward and the resume deadline passes.
  return RunOp("quiesce", [&] {
    Status fs = writer_->Flush();
    if (!fs.ok()) {
      return fs;
    }
    writer_->WaitForIdle();
    std::string state;
    writer_->GetProperty("shield.error-handler-state", &state);
    if (state != "active") {
      return Status::TryAgain("error handler state: " + state);
    }
    return Status::OK();
  });
}

Status SimCluster::CatchUpReplicas() {
  if (options_.inject_stale_replica_bug) {
    // Regression hook: lie about having caught up. The oracle must
    // notice (tests/sim_test.cc OracleCatchesStaleReplica).
    return Status::OK();
  }
  for (auto& r : replicas_) {
    Status s = RunOp("catch-up", [&] { return r->TryCatchUp(); });
    if (!s.ok()) {
      return s;
    }
  }
  return Status::OK();
}

Status SimCluster::OpenReplica(int i) {
  DB* raw = nullptr;
  Status s = RunOp("open-replica", [&] {
    return DB::OpenReadOnly(ReplicaOptions(i), options_.db_path, &raw);
  });
  if (!s.ok()) {
    return s;
  }
  if (static_cast<size_t>(i) < replicas_.size()) {
    replicas_[i].reset(raw);
  } else {
    replicas_.emplace_back(raw);
  }
  MaybeStartTrace(raw, "replica-" + std::to_string(i));
  return Status::OK();
}

void SimCluster::MaybeStartTrace(DB* db, const std::string& node) {
  if (!options_.observability || db == nullptr) {
    return;
  }
  TraceOptions topts;
  topts.exclusive = false;
  topts.node_name = node;
  // Write the trace beneath the remote/fault stack: zero virtual-time
  // cost, and the file survives SimulateCrash (which only drops
  // unsynced *database* bytes above this env).
  topts.trace_env = backing_.get();
  const std::string path = options_.trace_dir + "/" + node + "-" +
                           std::to_string(trace_incarnation_++) + ".trace";
  db->StartTrace(topts, path);  // best effort; tracing never fails the sim
}

Status SimCluster::RestartReplicas() {
  for (int i = 0; i < static_cast<int>(replicas_.size()); i++) {
    replicas_[i].reset();
    Status s = OpenReplica(i);
    if (!s.ok()) {
      return s;
    }
  }
  return Status::OK();
}

Status SimCluster::BitFlipSomeSst(uint64_t raw_pick, uint64_t raw_bit) {
  // The victim comes from the writer's current version, not from the
  // directory listing: the directory also holds obsolete SSTs that a
  // replica's file lease still keeps, and those may even be empty (a
  // crash cut an unsynced output to zero bytes).
  std::vector<std::string> live;
  Status s = writer_->GetLiveSstFiles(&live);
  if (!s.ok()) {
    return s;
  }
  if (live.empty()) {
    return Status::NotFound("no live SSTs to corrupt");
  }
  // FlipBit reduces the bit index modulo the file size itself.
  return fault_env_->FlipBit(live[raw_pick % live.size()], raw_bit);
}

Status SimCluster::VerifyAndRepair() {
  return RunOp("verify", [&] { return writer_->VerifyIntegrity(); });
}

Status SimCluster::RotateWriterDeks(uint64_t max_files,
                                    RotateResult* result) {
  return RunOp("rotate", [&] {
    RotateOptions opts;
    opts.max_files = max_files;
    return writer_->RotateDeks(opts, result);
  });
}

Status SimCluster::WaitRotationIdle() {
  return RunOp("rotation-idle", [&] {
    std::string state;
    writer_->GetProperty("shield.rotation-state", &state);
    if (state != "idle") {
      return Status::TryAgain("rotation state: " + state);
    }
    return Status::OK();
  });
}

Status SimCluster::CollectWriterSstDekIds(std::vector<std::string>* dek_ids) {
  dek_ids->clear();
  std::vector<std::string> live;
  Status s = writer_->GetLiveSstFiles(&live);
  if (!s.ok()) {
    return s;
  }
  for (const auto& path : live) {
    ShieldFileHeader header;
    s = ReadShieldFileHeader(fault_env_.get(), path, &header);
    if (!s.ok()) {
      return s;
    }
    dek_ids->push_back(header.dek_id.ToHex());
  }
  std::sort(dek_ids->begin(), dek_ids->end());
  return Status::OK();
}

Status SimCluster::CrashAndRecoverWriter() {
  HealAllFaults();
  Status s = fault_env_->SimulateCrash();
  if (!s.ok()) {
    return s;
  }
  // Destroying the DB after the crash models the process dying with
  // it: the destructor's close-path WAL flush lands *after* the
  // truncation point, leaving the kind of gap the salvage-based
  // recovery path must tolerate.
  writer_.reset();
  DB* raw = nullptr;
  s = RunOp("reopen-writer", [&] {
    return DB::Open(WriterOptions(), options_.db_path, &raw);
  });
  if (!s.ok()) {
    return s;
  }
  writer_.reset(raw);
  MaybeStartTrace(writer_.get(), "writer");
  return Quiesce();
}

Status SimCluster::CollectTraceFiles(
    std::vector<std::pair<std::string, std::string>>* out) {
  out->clear();
  if (!options_.observability) {
    return Status::OK();
  }
  // Drain every active trace to the backing store first.
  if (writer_ != nullptr) {
    writer_->EndTrace();
  }
  for (auto& r : replicas_) {
    r->EndTrace();
  }
  if (worker_tracer_ != nullptr) {
    worker_tracer_->Stop();
  }
  if (storage_tracer_ != nullptr) {
    storage_tracer_->Stop();
  }
  std::vector<std::string> children;
  Status s = backing_->GetChildren(options_.trace_dir, &children);
  if (!s.ok()) {
    return s;
  }
  std::sort(children.begin(), children.end());
  for (const auto& name : children) {
    std::string contents;
    s = ReadFileToString(backing_.get(),
                         options_.trace_dir + "/" + name, &contents);
    if (!s.ok()) {
      return s;
    }
    out->emplace_back(name, std::move(contents));
  }
  return Status::OK();
}

Status SimCluster::CollectNodeMetrics(
    std::vector<std::pair<std::string, std::string>>* out) {
  out->clear();
  std::string text;
  if (writer_ != nullptr && writer_->GetProperty("shield.metrics", &text)) {
    out->emplace_back("writer", text);
  }
  for (size_t i = 0; i < replicas_.size(); i++) {
    if (replicas_[i]->GetProperty("shield.metrics", &text)) {
      out->emplace_back("replica-" + std::to_string(i), text);
    }
  }
  return Status::OK();
}

void SimCluster::HealAllFaults() {
  fault_env_->SetFaultsEnabled(false);
  faulty_kds_->SetFaultsEnabled(false);
  faulty_kds_->HealOutage();
  service_->network()->HealPartition();
}

}  // namespace sim
}  // namespace shield
