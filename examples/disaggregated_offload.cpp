// Disaggregated-storage scenario (paper Sections 5.4-5.6):
//
//   compute server            storage cluster (simulated network)
//   ┌───────────────┐   RTT+bw   ┌──────────────────────────────┐
//   │ primary DB    │──────────▶│ shared files (WAL, SST, ...)  │
//   │ (SHIELD)      │            │  + offloaded compaction       │
//   └───────────────┘            │    worker (own KDS identity)  │
//   ┌───────────────┐            └──────────────────────────────┘
//   │ read-only     │──────────────────────▲
//   │ instance      │   resolves DEKs from file-embedded DEK-IDs
//   └───────────────┘   through the shared KDS
//
// Usage: disaggregated_offload

#include <cstdio>
#include <memory>

#include "ds/compaction_worker.h"
#include "ds/storage_service.h"
#include "kds/sim_kds.h"
#include "lsm/db.h"

namespace {
using namespace shield;  // example code; keep the demo readable
}

int main() {
  // --- The storage cluster: a shared namespace behind a simulated
  // 1 Gbps / 500 us network.
  auto backing = NewMemEnv();
  NetworkSimOptions network;
  network.rtt_micros = 200;  // small so the demo runs fast
  network.bandwidth_bytes_per_sec = 125ull * 1000 * 1000;
  StorageService storage(backing.get(), network);

  // --- The KDS (Secure-Swarm-Toolkit-style): per-server
  // authorization; all three parties are enrolled.
  auto kds = std::make_shared<SimKds>(SimKdsOptions{
      .request_latency_us = 500,
      .one_time_provisioning = false,
      .require_authorization = true});
  kds->AuthorizeServer("primary");
  kds->AuthorizeServer("compaction-worker");
  kds->AuthorizeServer("read-replica");

  // --- The offloaded compaction worker, colocated with storage.
  Options engine_options;
  engine_options.write_buffer_size = 64 * 1024;
  engine_options.encryption.mode = EncryptionMode::kShield;
  engine_options.encryption.kds = kds;

  RemoteCompactionWorker::WorkerOptions worker_options;
  worker_options.env = storage.server_env();
  worker_options.db_options = engine_options;
  worker_options.db_options.env = storage.server_env();
  worker_options.db_options.encryption.server_id = "compaction-worker";
  // The worker's own Statistics: its KDS count covers the worker alone.
  worker_options.db_options.statistics = CreateDBStatistics();
  worker_options.server_id = "compaction-worker";
  RemoteCompactionWorker worker(worker_options);

  // --- The primary compute instance.
  IoStats compute_traffic;
  auto compute_env = NewRemoteEnv(&storage, &compute_traffic);
  Options primary_options = engine_options;
  primary_options.env = compute_env.get();
  primary_options.encryption.server_id = "primary";
  primary_options.compaction_service = &worker;

  DB* raw_primary = nullptr;
  Status s = DB::Open(primary_options, "/cluster/db", &raw_primary);
  if (!s.ok()) {
    fprintf(stderr, "primary open failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::unique_ptr<DB> primary(raw_primary);

  printf("loading 5000 KV pairs through the primary...\n");
  for (int i = 0; i < 5000; i++) {
    s = primary->Put(WriteOptions(), "order:" + std::to_string(i % 1500),
                     "payload-" + std::to_string(i) + std::string(60, '.'));
    if (!s.ok()) {
      fprintf(stderr, "put failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  printf("offloading a full compaction to the storage-side worker...\n");
  s = primary->CompactRange(nullptr, nullptr);
  if (!s.ok()) {
    fprintf(stderr, "offloaded compaction failed: %s\n",
            s.ToString().c_str());
    return 1;
  }
  primary->WaitForIdle();
  printf("  worker ran %llu job(s); worker KDS round-trips: %llu\n",
         static_cast<unsigned long long>(worker.jobs_run()),
         static_cast<unsigned long long>(
             worker_options.db_options.statistics->GetTickerCount(
                 Tickers::kKdsRequests)));

  // --- A read-only replica on yet another server.
  auto replica_env = NewRemoteEnv(&storage, nullptr);
  Options replica_options = engine_options;
  replica_options.env = replica_env.get();
  replica_options.encryption.server_id = "read-replica";
  replica_options.compaction_service = nullptr;

  DB* raw_replica = nullptr;
  s = DB::OpenReadOnly(replica_options, "/cluster/db", &raw_replica);
  if (!s.ok()) {
    fprintf(stderr, "replica open failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::unique_ptr<DB> replica(raw_replica);

  std::string value;
  s = replica->Get(ReadOptions(), "order:77", &value);
  printf("replica read order:77 -> %s\n",
         s.ok() ? value.substr(0, 16).c_str() : s.ToString().c_str());

  // Primary keeps writing; the replica catches up on demand.
  primary->Put(WriteOptions(), "order:new", "fresh-after-replica-open");
  primary->Flush();
  replica->TryCatchUp();
  s = replica->Get(ReadOptions(), "order:new", &value);
  printf("replica after catch-up, order:new -> %s\n",
         s.ok() ? value.c_str() : s.ToString().c_str());

  // --- Traffic summary (the Table-3 style accounting).
  printf("\ncompute-side network traffic: %s\n",
         compute_traffic.ToString().c_str());
  printf("storage-media I/O:            %s\n",
         storage.media_stats()->ToString().c_str());
  printf("network: %llu requests, %.1f MiB transferred\n",
         static_cast<unsigned long long>(storage.network()->total_requests()),
         storage.network()->total_bytes() / 1048576.0);

  printf("\ndisaggregated_offload OK\n");
  return 0;
}
