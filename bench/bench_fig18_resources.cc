// Figure 18: resource sensitivity in the offloaded-compaction DS setup.
// The paper varies CPU cores / RAM via cgroups and bandwidth via tc;
// here the same ceilings are applied at the layer the engine consumes
// them: CPU -> encryption thread budget (the engine runs one flush and
// one compaction lane, and compaction is offloaded here), RAM ->
// memtable + block-cache budget, bandwidth -> the network simulator's token
// bucket. Paper: bandwidth dominates (+77% when raised), CPU/RAM have
// modest impact; SHIELD stays within ~20% under all ceilings.

#include "bench_common.h"

using namespace shield;
using namespace shield::bench;

namespace {

BenchResult RunOne(const std::string& label, Engine engine, int cpu_threads,
                   size_t ram_bytes, uint64_t bandwidth_bps) {
  auto cluster = MakeDsCluster(/*rtt_us=*/200, bandwidth_bps);
  Options options = cluster->MakeDbOptions(engine, /*offload=*/true);
  options.encryption.encryption_threads = cpu_threads;
  options.write_buffer_size = ram_bytes / 4;
  options.block_cache_size = ram_bytes / 2;
  auto db = OpenDs(cluster.get(), options, "fig18");

  WorkloadOptions workload;
  workload.num_ops = DefaultDsOps();
  workload.num_keys = DefaultDsOps();
  BenchResult result = FillRandomSettled(db.get(), workload, label);
  db.reset();
  return result;
}

}  // namespace

int main() {
  PrintBenchHeader("Fig 18: CPU / RAM / bandwidth ceilings (DS + "
                   "offload)",
                   "bandwidth is the bottleneck; SHIELD <=20% "
                   "overhead under constrained resources");

  printf("\n-- (a) CPU cores (4 MiB RAM budget, 1 Gbps) --\n");
  for (int cpu : {1, 2, 4}) {
    char label[64];
    BenchResult baseline, shielded;
    snprintf(label, sizeof(label), "unencrypted cpu=%d", cpu);
    baseline = RunOne(label, Engine::kUnencrypted, cpu, 4 << 20,
                      125ull * 1000 * 1000);
    PrintResult(baseline);
    snprintf(label, sizeof(label), "shield cpu=%d", cpu);
    shielded = RunOne(label, Engine::kShieldWalBuf, cpu, 4 << 20,
                      125ull * 1000 * 1000);
    PrintResult(shielded);
    PrintPercentVs(baseline, shielded);
  }

  printf("\n-- (b) memory budget (2 CPU, 1 Gbps) --\n");
  for (size_t ram : {size_t{1} << 20, size_t{4} << 20, size_t{16} << 20}) {
    char label[64];
    snprintf(label, sizeof(label), "unencrypted ram=%zuMiB", ram >> 20);
    BenchResult baseline =
        RunOne(label, Engine::kUnencrypted, 2, ram, 125ull * 1000 * 1000);
    PrintResult(baseline);
    snprintf(label, sizeof(label), "shield ram=%zuMiB", ram >> 20);
    BenchResult shielded =
        RunOne(label, Engine::kShieldWalBuf, 2, ram, 125ull * 1000 * 1000);
    PrintResult(shielded);
    PrintPercentVs(baseline, shielded);
  }

  printf("\n-- (c) network bandwidth (2 CPU, 4 MiB RAM) --\n");
  for (uint64_t mbps : {100ull, 1000ull, 10000ull}) {
    const uint64_t bps = mbps * 1000 * 1000 / 8;
    char label[64];
    snprintf(label, sizeof(label), "unencrypted bw=%lluMbps",
             static_cast<unsigned long long>(mbps));
    BenchResult baseline =
        RunOne(label, Engine::kUnencrypted, 2, 4 << 20, bps);
    PrintResult(baseline);
    snprintf(label, sizeof(label), "shield bw=%lluMbps",
             static_cast<unsigned long long>(mbps));
    BenchResult shielded =
        RunOne(label, Engine::kShieldWalBuf, 2, 4 << 20, bps);
    PrintResult(shielded);
    PrintPercentVs(baseline, shielded);
  }
  return 0;
}
