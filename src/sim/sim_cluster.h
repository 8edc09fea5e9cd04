#ifndef SHIELD_SIM_SIM_CLUSTER_H_
#define SHIELD_SIM_SIM_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ds/compaction_worker.h"
#include "ds/storage_service.h"
#include "env/fault_injection_env.h"
#include "kds/failover_kds.h"
#include "kds/faulty_kds.h"
#include "kds/sim_kds.h"
#include "lsm/db.h"
#include "util/event_logger.h"
#include "util/random.h"
#include "util/retry.h"
#include "util/trace.h"

namespace shield {
namespace sim {

struct SimClusterOptions {
  uint64_t seed = 1;

  /// Read-only DB instances sharing the writer's files over the
  /// storage service.
  int num_replicas = 2;

  std::string db_path = "/simdb";

  /// Simulated fabric between compute nodes and the storage server.
  uint64_t network_rtt_micros = 200;
  uint64_t network_bandwidth_bytes_per_sec = 1ull << 30;

  /// Simulated KDS service latency per request.
  uint64_t kds_latency_micros = 300;

  /// Writer memtable size; small so epochs of a few hundred ops
  /// exercise flush + compaction + DEK rotation.
  size_t write_buffer_size = 32 * 1024;

  /// Writer WAL record padding buckets
  /// (EncryptionOptions::wal_padding_buckets). The write campaign sets
  /// these to prove padded WALs recover and replicate identically
  /// under crash faults. Empty = no padding.
  std::vector<uint32_t> wal_padding_buckets;

  /// Shared info log for all nodes (event-log mirror). Null: no logs.
  std::shared_ptr<Logger> info_log;

  /// Front the writer's KDS with a FailoverKds over two endpoints:
  /// the (fault-injected) primary and a clean secondary, both over the
  /// same SimKds key store. Used by the rotation campaign to prove a
  /// rotation survives a primary-KDS outage longer than any retry
  /// deadline. Replicas and the compaction worker stay on the primary.
  bool use_failover_kds = false;

  /// Regression hook for the oracle's own test (tests/sim_test.cc):
  /// when true, CatchUpReplicas() silently skips the catch-up while
  /// reporting success — re-introducing the stale-replica bug the
  /// oracle exists to catch. Replica checks after the next barrier
  /// MUST fail; a run that passes with this flag set means the oracle
  /// is broken.
  bool inject_stale_replica_bug = false;

  /// Cluster observability plane: give every node a name and its own
  /// Statistics (per-node "shield.metrics" scrapes), and start one
  /// non-exclusive tracer per node — writer, replicas, offload worker,
  /// storage server — each writing a SHTRACE1 v2 file into trace_dir
  /// on the zero-cost backing store, so tracing never perturbs virtual
  /// time (journals stay bit-identical with this on or off).
  bool observability = false;
  std::string trace_dir = "/simtrace";
};

/// One whole SHIELD deployment inside a single process, built for the
/// deterministic simulator:
///
///   MemEnv (storage server's disk)
///     └─ FaultInjectionEnv        (seeded I/O faults, crash semantics)
///          └─ StorageService      (network sim + HDFS-style replica tee)
///               ├─ RemoteEnv → writer DB        (kShield, offloading)
///               ├─ RemoteEnv → replica DB × N   (DB::OpenReadOnly)
///               └─ server_env → RemoteCompactionWorker
///   SimKds (authorization, latency)
///     └─ FaultyKds                (seeded KDS outages/errors)
///
/// All driver-visible operations (Put/Delete/Flush/Compact and the
/// quiesce barrier) are wrapped in RunWithRetry with a seeded jitter
/// PRNG and the virtual clock, with a generous virtual deadline: under
/// virtual time every injected outage window self-heals during the
/// backoff sleeps, so each driver op deterministically succeeds even
/// when individual attempts fail. That per-op determinism of *outcome*
/// (not of attempt counts, which are never journaled) is what lets the
/// harness compare runs bit-for-bit.
class SimCluster {
 public:
  explicit SimCluster(const SimClusterOptions& options);
  ~SimCluster();

  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  /// Builds the env/KDS stack, opens the writer, the worker and the
  /// replicas. Faults start disabled.
  Status Start();

  // --- Driver ops (retry-wrapped; OK means acknowledged) ------------
  Status Put(const std::string& key, const std::string& value, bool sync);
  Status Delete(const std::string& key, bool sync);
  Status FlushWriter();
  Status CompactAll();

  /// Durability + quiescence barrier: flushes the memtable, waits for
  /// background work to drain and for the error handler to return to
  /// "active". Call with faults healed, or this may retry for a long
  /// (virtual) time.
  Status Quiesce();

  /// Re-syncs every replica to the writer's latest persisted state.
  /// Subject to the inject_stale_replica_bug hook (see options).
  Status CatchUpReplicas();

  /// Closes and reopens all replicas (drops their table-cache handles;
  /// required after a scrub repair rewrote an SST in place).
  Status RestartReplicas();

  /// Flips one bit in a seeded live SST of the writer (raw draws are
  /// reduced modulo file count/size here so the caller's PRNG stream
  /// stays independent of compaction shape). NotFound when the writer
  /// has no SSTs yet.
  Status BitFlipSomeSst(uint64_t raw_pick, uint64_t raw_bit);

  /// On-demand scrub of the writer (detect + repair from the storage
  /// replica).
  Status VerifyAndRepair();

  /// Online DEK rotation on the writer (at most `max_files` files when
  /// non-zero). Retried like every driver op; rotation resumes from
  /// its persisted manifest, so retries are idempotent.
  Status RotateWriterDeks(uint64_t max_files, RotateResult* result);

  /// Blocks (virtual time) until the writer reports no rotation
  /// running and none pending — i.e. a resume-at-reopen rotation has
  /// finished.
  Status WaitRotationIdle();

  /// DEK ids (hex, sorted) embedded in the writer's live SST headers,
  /// read physically beneath the storage service.
  Status CollectWriterSstDekIds(std::vector<std::string>* dek_ids);

  /// Kills the writer at the storage level (drop unsynced bytes),
  /// destroys the DB object, and recovers it with DB::Open. Faults
  /// must be healed first. Replicas stay up (their state is checked —
  /// and re-synced — by the harness afterwards).
  Status CrashAndRecoverWriter();

  // --- Fault surfaces (the harness composes fault epochs from these)
  FaultInjectionEnv* fault_env() { return fault_env_.get(); }
  FaultyKds* faulty_kds() { return faulty_kds_.get(); }
  NetworkSimulator* network() { return service_->network(); }
  SimKds* sim_kds() { return sim_kds_.get(); }
  /// Non-null only with SimClusterOptions::use_failover_kds.
  FailoverKds* failover_kds() { return failover_kds_.get(); }

  /// Disables every probabilistic fault source and heals all active
  /// outage/partition windows.
  void HealAllFaults();

  // --- Introspection ------------------------------------------------
  DB* writer() { return writer_.get(); }
  int num_replicas() const { return static_cast<int>(replicas_.size()); }
  DB* replica(int i) { return replicas_[i].get(); }
  EventLogger* event_logger() { return event_logger_.get(); }
  StorageService* storage() { return service_.get(); }

  // --- Observability plane (SimClusterOptions::observability) -------

  /// Ends every node's trace (draining buffers to the backing store)
  /// and returns each trace file as (file name, raw SHTRACE1 bytes).
  /// Restarted nodes contribute one file per incarnation.
  Status CollectTraceFiles(
      std::vector<std::pair<std::string, std::string>>* out);

  /// Scrapes each DB node's "shield.metrics" property:
  /// (node name, Prometheus text). Worker/storage nodes have no
  /// registry and are not listed.
  Status CollectNodeMetrics(
      std::vector<std::pair<std::string, std::string>>* out);

 private:
  Options WriterOptions();
  Options ReplicaOptions(int i);
  Status OpenReplica(int i);
  Status RunOp(const char* what, const std::function<Status()>& op);
  /// Starts a per-node non-exclusive trace on `db` (no-op without
  /// observability). Each call gets a fresh incarnation-numbered file.
  void MaybeStartTrace(DB* db, const std::string& node);

  SimClusterOptions options_;
  RetryPolicy driver_policy_;
  Random retry_rnd_;

  std::unique_ptr<Env> backing_;
  std::unique_ptr<FaultInjectionEnv> fault_env_;
  std::unique_ptr<StorageService> service_;
  std::unique_ptr<Env> writer_env_;
  std::vector<std::unique_ptr<Env>> replica_envs_;

  std::shared_ptr<SimKds> sim_kds_;
  std::shared_ptr<FaultyKds> faulty_kds_;
  std::shared_ptr<FaultyKds> secondary_kds_;
  std::shared_ptr<FailoverKds> failover_kds_;

  std::unique_ptr<RemoteCompactionWorker> worker_;
  /// Wraps worker_ so offload dispatch/result round-trips pay the
  /// simulated fabric RTT: the writer-side ds.offload_rpc span is then
  /// strictly longer than the worker's ds.compaction_rpc span, and
  /// stitched traces attribute that gap as per-hop network latency.
  std::unique_ptr<CompactionService> fabric_compaction_;
  std::unique_ptr<EventLogger> event_logger_;

  /// Per-node tracers for the nodes that are not DBs (the offload
  /// worker binds per-job, the storage service per-fetch). DB nodes
  /// own their tracer via DB::StartTrace.
  std::unique_ptr<Tracer> worker_tracer_;
  std::unique_ptr<Tracer> storage_tracer_;
  /// Distinguishes trace files across node restarts (one SHTRACE1
  /// file per node incarnation).
  int trace_incarnation_ = 0;

  std::unique_ptr<DB> writer_;
  std::vector<std::unique_ptr<DB>> replicas_;
};

}  // namespace sim
}  // namespace shield

#endif  // SHIELD_SIM_SIM_CLUSTER_H_
