// Ablation (beyond the paper): bloom filters on encrypted SSTs. A
// filter hit avoids both the block I/O and its decryption, so filters
// matter slightly MORE for an encrypted store. Measures point lookups
// for present and absent keys, with and without filters, under SHIELD
// and the plaintext baseline.

#include "bench_common.h"
#include "lsm/filter_policy.h"
#include "util/random.h"

using namespace shield;
using namespace shield::bench;

int main() {
  std::unique_ptr<const FilterPolicy> bloom(NewBloomFilterPolicy(10));

  PrintBenchHeader("Ablation: bloom filters x encryption (point lookups)",
                   "(beyond the paper) absent-key lookups gain most; "
                   "filters also skip block decryption under SHIELD");

  for (Engine engine : {Engine::kUnencrypted, Engine::kShieldWalBuf}) {
    for (bool use_filter : {false, true}) {
      Options options = MonolithOptions();
      options.block_cache_size = 0;  // force block fetches on every read
      ApplyEngine(engine, &options);
      if (use_filter) {
        options.filter_policy = bloom.get();
      }
      auto db = OpenFresh(options, "bloom");

      WorkloadOptions load;
      load.num_ops = DefaultKeys() / 2;
      load.num_keys = DefaultKeys() / 2;
      FillRandom(db.get(), load, "load");
      db->CompactRange(nullptr, nullptr);
      db->WaitForIdle();

      const std::string prefix = std::string(EngineName(engine)) +
                                 (use_filter ? "+bloom" : "      ");
      WorkloadOptions reads = load;
      reads.num_ops = DefaultReads() / 2;
      BenchResult present =
          ReadRandom(db.get(), reads, prefix + " present-keys");
      PrintResult(present);

      // Absent keys inside the loaded range: a loaded key plus one byte
      // sorts between two written keys and is never written, so the
      // probe reaches a table and its filter.
      ReadOptions read_options;
      std::vector<Random> rngs;
      for (int t = 0; t < reads.num_threads; t++) {
        rngs.emplace_back(999 + t);
      }
      BenchResult absent =
          RunOps(prefix + " absent-keys", reads.num_ops, reads.num_threads,
                 [&](int t, uint64_t) {
                   const std::string key =
                       MakeKey(rngs[t].Uniform(load.num_keys),
                               load.key_size) +
                       "x";
                   std::string value;
                   db->Get(read_options, key, &value);
                 });
      PrintResult(absent);

      db.reset();
      Cleanup(options, "bloom");
    }
  }
  return 0;
}
