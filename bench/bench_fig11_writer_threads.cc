// Figure 11: writer-thread sensitivity. With many concurrent writers
// the group-commit queue becomes the bottleneck and the WAL buffer's
// benefit shrinks (paper: WAL-Buf gain drops from ~22% to ~1% at 8
// writer threads).
//
// Emits BENCH_fig11.json with one result row per engine x thread
// count (labels "<engine>/t<threads>") so CI can check the 1->8
// scaling curve.
//
// Knobs: SHIELD_BENCH_OPS / SHIELD_BENCH_KEYS     (bench_common.h)
//        SHIELD_BENCH_FIG11_MAX_WRITERS           (default 16)

#include <cinttypes>
#include <vector>

#include "bench_common.h"

namespace shield {
namespace bench {
namespace {

void Run() {
  const uint64_t max_writers = EnvInt("SHIELD_BENCH_FIG11_MAX_WRITERS", 16);

  PrintBenchHeader("Fig 11: writer threads (fillrandom, 16 bg jobs)",
                   "WAL-Buf benefit fades as writers saturate the "
                   "ingestion queue");

  std::shared_ptr<Statistics> stats = CreateDBStatistics();
  std::vector<BenchResult> all_results;

  for (int threads : {1, 2, 4, 8, 16}) {
    if (static_cast<uint64_t>(threads) > max_writers) {
      break;
    }
    printf("\n-- %d writer thread(s) --\n", threads);
    BenchResult unbuffered;
    for (Engine engine :
         {Engine::kUnencrypted, Engine::kShield, Engine::kShieldWalBuf}) {
      Options options = MonolithOptions();
      options.statistics = stats;
      ApplyEngine(engine, &options);
      auto db = OpenFresh(options, "fig11");

      WorkloadOptions workload;
      workload.num_ops = DefaultOps();
      workload.num_keys = DefaultKeys();
      workload.num_threads = threads;

      const uint64_t groups_before =
          stats->GetTickerCount(Tickers::kLsmWriteGroups);
      const uint64_t grouped_before =
          stats->GetTickerCount(Tickers::kLsmWriteGroupSize);

      BenchResult result = FillRandomSettled(
          db.get(), workload,
          std::string(EngineName(engine)) + "/t" + std::to_string(threads));
      PrintResult(result);

      const uint64_t groups =
          stats->GetTickerCount(Tickers::kLsmWriteGroups) - groups_before;
      const uint64_t grouped =
          stats->GetTickerCount(Tickers::kLsmWriteGroupSize) - grouped_before;
      printf("   groups=%" PRIu64 " avg_group=%.2f\n", groups,
             groups > 0 ? static_cast<double>(grouped) / groups : 0.0);

      if (engine == Engine::kShield) {
        unbuffered = result;
      } else if (engine == Engine::kShieldWalBuf) {
        PrintPercentVs(unbuffered, result);
      }
      all_results.push_back(result);
      db.reset();
      Cleanup(options, "fig11");
    }
  }

  const std::string json_path = "BENCH_fig11.json";
  if (WriteBenchJson(json_path, "fig11_writer_threads", all_results,
                     stats.get())) {
    printf("\nwrote %s\n", json_path.c_str());
  } else {
    fprintf(stderr, "fig11: cannot write %s\n", json_path.c_str());
  }
}

}  // namespace
}  // namespace bench
}  // namespace shield

int main() {
  shield::bench::Run();
  return 0;
}
