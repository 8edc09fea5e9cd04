#ifndef SHIELD_BENCH_BENCH_COMMON_H_
#define SHIELD_BENCH_BENCH_COMMON_H_

// Shared plumbing for the per-figure/table bench binaries. Scale knobs
// come from the environment so a laptop run and a beefy-server run use
// the same binaries:
//   SHIELD_BENCH_OPS    write ops per run        (default 100000)
//   SHIELD_BENCH_READS  read ops per run         (default 50000)
//   SHIELD_BENCH_KEYS   key-space size           (default 100000)
//   SHIELD_BENCH_DS_OPS ops for simulated-DS runs (default 20000)

#include <cstdio>
#include <memory>
#include <string>

#include "benchutil/engines.h"
#include "benchutil/mixgraph.h"
#include "benchutil/report.h"
#include "benchutil/workload.h"
#include "benchutil/ycsb.h"
#include "ds/compaction_worker.h"
#include "ds/storage_service.h"
#include "kds/sim_kds.h"
#include "lsm/db.h"
#include "util/clock.h"

namespace shield {
namespace bench {

inline uint64_t DefaultOps() { return EnvInt("SHIELD_BENCH_OPS", 100'000); }
inline uint64_t DefaultReads() { return EnvInt("SHIELD_BENCH_READS", 50'000); }
inline uint64_t DefaultKeys() { return EnvInt("SHIELD_BENCH_KEYS", 100'000); }
inline uint64_t DefaultDsOps() { return EnvInt("SHIELD_BENCH_DS_OPS", 20'000); }

/// Baseline options used by all monolith benches (defaults follow the
/// paper's db_bench setup at reduced scale).
inline Options MonolithOptions() {
  Options options;
  options.write_buffer_size =
      static_cast<size_t>(EnvInt("SHIELD_BENCH_WRITE_BUFFER", 4 << 20));
  options.block_cache_size = 32 << 20;
  return options;
}

/// Opens a freshly-destroyed DB on tmpfs (stable timing on shared VMs).
inline std::unique_ptr<DB> OpenFresh(const Options& options,
                                     const std::string& name) {
  const std::string path = "/dev/shm/shield_bench_" + name;
  DestroyDB(options, path);
  DB* raw_db = nullptr;
  Status s = DB::Open(options, path, &raw_db);
  if (!s.ok()) {
    fprintf(stderr, "FATAL: cannot open %s: %s\n", path.c_str(),
            s.ToString().c_str());
    exit(1);
  }
  return std::unique_ptr<DB>(raw_db);
}

inline void Cleanup(const Options& options, const std::string& name) {
  DestroyDB(options, "/dev/shm/shield_bench_" + name);
}

/// One simulated disaggregated-storage deployment: shared storage
/// behind a network, an optional offloaded-compaction worker, and a
/// SimKds. Mirrors the paper's two-server testbed.
struct DsCluster {
  std::unique_ptr<Env> backing;      // storage server filesystem
  std::unique_ptr<StorageService> storage;
  std::unique_ptr<Env> compute_env;  // client (compute server) view
  std::shared_ptr<SimKds> kds;
  std::unique_ptr<RemoteCompactionWorker> worker;
  IoStats compute_traffic;

  /// `engine` selects unencrypted vs SHIELD; `offload` wires the
  /// storage-side compaction worker into the returned options.
  Options MakeDbOptions(Engine engine, bool offload) {
    Options options;
    options.env = compute_env.get();
    options.write_buffer_size = 1 << 20;
    options.block_cache_size = 16 << 20;
    ApplyEngine(engine, &options);
    if (options.encryption.mode == EncryptionMode::kShield) {
      options.encryption.kds = kds;
      options.encryption.server_id = "primary";
    }
    if (offload) {
      RemoteCompactionWorker::WorkerOptions worker_options;
      worker_options.env = storage->server_env();
      worker_options.db_options = options;
      worker_options.db_options.env = storage->server_env();
      worker_options.db_options.encryption.server_id = "worker";
      worker_options.server_id = "worker";
      worker = std::make_unique<RemoteCompactionWorker>(worker_options);
      options.compaction_service = worker.get();
    }
    return options;
  }
};

inline std::unique_ptr<DsCluster> MakeDsCluster(
    uint64_t rtt_us = 500, uint64_t bandwidth_bps = 125ull * 1000 * 1000,
    uint64_t kds_latency_us = 2750) {
  auto cluster = std::make_unique<DsCluster>();
  cluster->backing = NewMemEnv();
  NetworkSimOptions network;
  network.rtt_micros = rtt_us;
  network.bandwidth_bytes_per_sec = bandwidth_bps;
  cluster->storage =
      std::make_unique<StorageService>(cluster->backing.get(), network);
  cluster->compute_env =
      NewRemoteEnv(cluster->storage.get(), &cluster->compute_traffic);
  cluster->kds = std::make_shared<SimKds>(SimKdsOptions{
      .request_latency_us = kds_latency_us,
      .one_time_provisioning = false,
      .require_authorization = false});
  return cluster;
}

/// fillrandom with run isolation: foreground throughput is measured
/// exactly as the paper does (Put-call rate while background jobs run
/// concurrently); the flush/compaction backlog is then drained OUTSIDE
/// the timed window so consecutive engine configurations start from a
/// quiesced system and do not inherit each other's background debt.
inline BenchResult FillRandomSettled(DB* db, const WorkloadOptions& opts,
                                     const std::string& label) {
  BenchResult result = FillRandom(db, opts, label);
  db->Flush();
  db->WaitForIdle();
  return result;
}

inline std::unique_ptr<DB> OpenDs(DsCluster* cluster, const Options& options,
                                  const std::string& name) {
  const std::string path = "/cluster/" + name;
  DestroyDB(options, path);
  DB* raw_db = nullptr;
  Status s = DB::Open(options, path, &raw_db);
  if (!s.ok()) {
    fprintf(stderr, "FATAL: cannot open DS db %s: %s\n", path.c_str(),
            s.ToString().c_str());
    exit(1);
  }
  (void)cluster;
  return std::unique_ptr<DB>(raw_db);
}

}  // namespace bench
}  // namespace shield

#endif  // SHIELD_BENCH_BENCH_COMMON_H_
