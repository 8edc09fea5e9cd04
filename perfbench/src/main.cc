// SHIELD benchmark: one closed-loop client thread against the
// full SHIELD design with library defaults (kShield, AES-128-CTR,
// authenticated blocks, 512 B WAL buffer, default keystream pipeline)
// plus 10-bit Bloom filters.
//
//   shield_perfbench --workload <overwrite|read_hot|read_cold|ds_ycsb_a>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--spans <path>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// ones (see README.md for every definition). The last line of stdout
// is the result object; the line before it records the host, the build
// and the crypto kernels the run used.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "crypto/block_auth.h"
#include "crypto/cipher.h"
#include "ds/compaction_worker.h"
#include "ds/storage_service.h"
#include "gen.h"
#include "kds/local_kds.h"
#include "kds/sim_kds.h"
#include "layers.h"
#include "lsm/db.h"
#include "lsm/filter_policy.h"
#include "util/crc32c.h"
#include "util/perf_context.h"
#include "util/statistics.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using shield::Status;

// ---------------------------------------------------------------------
// Workloads

struct Spec {
  const char* name;
  bool ds;                // DS cluster instead of a monolith
  uint64_t keys;          // preloaded items
  size_t value_size;
  size_t block_cache;     // bytes
  size_t write_buffer;    // bytes
  double get_fraction;    // share of window ops that are Gets
  bool zipfian;           // key popularity (else uniform)
  bool warm_scan;         // scan the DB once before timing
  uint64_t readback;      // verified Gets after the window drains
};

constexpr size_t kMiB = 1 << 20;
constexpr uint64_t kMonoKeys = 500000;
constexpr uint64_t kDsKeys = 50000;

// Every tenth Get of a read workload asks for a never-written key.
constexpr uint64_t kMissingEvery = 10;

const Spec kSpecs[] = {
    {"overwrite", false, kMonoKeys, 100, 8 * kMiB, 4 * kMiB, 0.0, false,
     false, 1000},
    {"read_hot", false, kMonoKeys, 100, 128 * kMiB, 4 * kMiB, 1.0, false,
     true, 0},
    {"read_cold", false, kMonoKeys, 100, 4 * kMiB, 4 * kMiB, 1.0, false,
     true, 0},
    {"ds_ycsb_a", true, kDsKeys, 1024, 16 * kMiB, 1 * kMiB, 0.5, true,
     false, 300},
};

// DS fabric, as bench/bench_common.h's MakeDsCluster builds it.
constexpr uint64_t kDsRttMicros = 200;
constexpr uint64_t kDsBandwidth = 125ull * 1000 * 1000;
constexpr uint64_t kDsKdsMicros = 2750;

// Set-ups per untraced run; setup_s is their median. The window runs on
// the last one.
constexpr int kSetups = 3;
// Traced runs alternate untraced and traced slices of this length.
constexpr uint64_t kSliceNanos = 50'000'000;

// ---------------------------------------------------------------------
// Results

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> notes;  // first few failures, for stderr

  void Fail(const std::string& what) {
    ++failed;
    if (notes.size() < 5) notes.push_back(what);
  }
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Latency samples in nanoseconds, in the order they were taken.
class Samples {
 public:
  void Add(uint64_t ns) { ns_.push_back(ns); }
  size_t size() const { return ns_.size(); }

  /// Mean of all samples, in microseconds.
  double MeanUs() const {
    if (ns_.empty()) return 0;
    double sum = 0;
    for (uint64_t ns : ns_) sum += double(ns);
    return sum / double(ns_.size()) / 1e3;
  }

  /// Nearest-rank percentile `p` of all samples, in microseconds.
  double PercentileUs(double p) const {
    if (ns_.empty()) return 0;
    std::vector<uint64_t> sorted = ns_;
    const size_t rank = static_cast<size_t>(p * double(sorted.size() - 1) + 0.5);
    std::nth_element(sorted.begin(), sorted.begin() + rank, sorted.end());
    return double(sorted[rank]) / 1e3;
  }

 private:
  std::vector<uint64_t> ns_;
};


// ---------------------------------------------------------------------
// One set-up database with the seams around it.

struct Instance {
  std::unique_ptr<shield::Env> backing;
  std::unique_ptr<shield::StorageService> storage;
  shield::IoStats remote_io;
  std::unique_ptr<shield::Env> remote;
  std::unique_ptr<BenchEnv> env;
  std::shared_ptr<BenchKds> kds;
  std::unique_ptr<shield::RemoteCompactionWorker> worker;
  std::unique_ptr<BenchCompactionService> offload;
  std::unique_ptr<BenchFilterPolicy> filter;
  std::shared_ptr<BenchListener> listener;
  std::shared_ptr<shield::Statistics> stats;
  std::string dbname;
  std::unique_ptr<shield::DB> db;

  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;
  ~Instance() {
    db.reset();
    if (storage) storage->SetStatisticsSink(nullptr);
  }

  /// Bytes of SSTs, WALs and MANIFESTs in the DB directory.
  uint64_t LiveBytes() {
    shield::Env* raw = env->target();
    std::vector<std::string> children;
    uint64_t total = 0;
    if (!raw->GetChildren(dbname, &children).ok()) return 0;
    for (const std::string& child : children) {
      if (child.rfind("LOG", 0) == 0) continue;
      uint64_t size = 0;
      if (raw->GetFileSize(dbname + "/" + child, &size).ok()) total += size;
    }
    return total;
  }
};

const shield::FilterPolicy* Bloom() {
  static const std::unique_ptr<const shield::FilterPolicy> bloom(
      shield::NewBloomFilterPolicy(10));
  return bloom.get();
}

std::unique_ptr<Instance> OpenInstance(const Spec& spec, bool trace) {
  auto inst = std::make_unique<Instance>();
  inst->backing = shield::NewMemEnv();
  shield::Options options;
  options.encryption.mode = shield::EncryptionMode::kShield;
  options.block_cache_size = spec.block_cache;
  options.write_buffer_size = spec.write_buffer;
  options.filter_policy = Bloom();
  if (trace) {
    inst->filter = std::make_unique<BenchFilterPolicy>(Bloom());
    options.filter_policy = inst->filter.get();
    inst->listener = std::make_shared<BenchListener>();
    options.listeners.push_back(inst->listener);
    inst->stats = shield::CreateDBStatistics();
    options.statistics = inst->stats;
  }
  if (spec.ds) {
    shield::NetworkSimOptions network;
    network.rtt_micros = kDsRttMicros;
    network.bandwidth_bytes_per_sec = kDsBandwidth;
    inst->storage = std::make_unique<shield::StorageService>(
        inst->backing.get(), network);
    if (trace) inst->storage->SetStatisticsSink(inst->stats.get());
    inst->remote = shield::NewRemoteEnv(inst->storage.get(), &inst->remote_io);
    inst->env = std::make_unique<BenchEnv>(inst->remote.get());
    inst->kds = std::make_shared<BenchKds>(
        std::make_shared<shield::SimKds>(shield::SimKdsOptions{
            .request_latency_us = kDsKdsMicros,
            .one_time_provisioning = false,
            .require_authorization = false}));
    options.encryption.kds = inst->kds;
    options.encryption.server_id = "primary";
    inst->dbname = "/cluster/db";
  } else {
    inst->env = std::make_unique<BenchEnv>(inst->backing.get());
    inst->kds = std::make_shared<BenchKds>(std::make_shared<shield::LocalKds>());
    options.encryption.kds = inst->kds;
    inst->dbname = "/db";
  }
  options.env = inst->env.get();
  if (spec.ds) {
    shield::RemoteCompactionWorker::WorkerOptions worker;
    worker.env = inst->storage->server_env();
    worker.db_options = options;
    worker.db_options.env = inst->storage->server_env();
    worker.db_options.encryption.server_id = "worker";
    worker.server_id = "worker";
    inst->worker = std::make_unique<shield::RemoteCompactionWorker>(worker);
    inst->offload = std::make_unique<BenchCompactionService>(inst->worker.get());
    options.compaction_service = inst->offload.get();
  }
  shield::DB* raw = nullptr;
  Status s = shield::DB::Open(options, inst->dbname, &raw);
  if (!s.ok()) {
    fprintf(stderr, "cannot open %s: %s\n", inst->dbname.c_str(),
            s.ToString().c_str());
    return nullptr;
  }
  inst->db.reset(raw);
  return inst;
}

// ---------------------------------------------------------------------
// The client

/// PerfContext fields the traced run attributes, summed per op kind.
struct PerfSums {
  uint64_t block_reads = 0;
  uint64_t cache_hits = 0;
  uint64_t decrypt_us = 0;
  uint64_t hmac_us = 0;
  uint64_t stall_us = 0;
  uint64_t wal_us = 0;
  uint64_t keystream_stall_us = 0;

  static PerfSums Now() {
    const shield::PerfContext* p = shield::GetPerfContext();
    return PerfSums{p->block_read_count,  p->block_cache_hit_count,
                    p->decrypt_micros,    p->hmac_micros,
                    p->write_stall_micros, p->wal_write_micros,
                    p->wal_keystream_stall_micros};
  }
  void AddDelta(const PerfSums& a, const PerfSums& b) {
    block_reads += b.block_reads - a.block_reads;
    cache_hits += b.cache_hits - a.cache_hits;
    decrypt_us += b.decrypt_us - a.decrypt_us;
    hmac_us += b.hmac_us - a.hmac_us;
    stall_us += b.stall_us - a.stall_us;
    wal_us += b.wal_us - a.wal_us;
    keystream_stall_us += b.keystream_stall_us - a.keystream_stall_us;
  }
};

class Client {
 public:
  Client(const Spec& spec, Tally* tally)
      : spec_(spec), tally_(tally), seqs_(spec.keys, 0) {}

  void Attach(Instance* inst) { inst_ = inst; }

  /// Writes every item once, in a seeded random order.
  void Preload(uint64_t seed) {
    std::vector<uint64_t> order(spec_.keys);
    for (uint64_t i = 0; i < spec_.keys; ++i) order[i] = i;
    Rng rng(seed);
    for (uint64_t i = spec_.keys; i > 1; --i) {
      std::swap(order[i - 1], order[rng.Uniform(i)]);
    }
    for (uint64_t id : order) Put(id, nullptr, /*first=*/true);
  }

  /// Reads the whole DB in key order; every item must be there, once,
  /// intact. Warms the block cache as a side effect.
  void Scan() {
    ++tally_->attempted;
    std::unique_ptr<shield::Iterator> it(
        inst_->db->NewIterator(shield::ReadOptions()));
    uint64_t seen = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      const std::string key = it->key().ToString();
      const uint64_t slot = strtoull(key.c_str() + 1, nullptr, 10);
      if (slot % 2 != 0 || slot / 2 >= spec_.keys ||
          !CheckValue(key, seqs_[slot / 2], spec_.value_size,
                      it->value().ToString())) {
        tally_->Fail("scan: bad entry " + key);
        return;
      }
      ++seen;
    }
    if (!it->status().ok() || seen != spec_.keys) {
      tally_->Fail("scan: " + it->status().ToString() + ", saw " +
                   std::to_string(seen) + " items");
    }
  }

  void Get(uint64_t id, bool missing, Samples* samples) {
    ++tally_->attempted;
    const std::string key = KeyOf(id, !missing);
    std::string value;
    PerfSums before;
    if (traced_) before = PerfSums::Now();
    const uint64_t start = NowNanos();
    Status s;
    {
      Span span(kGet);
      s = inst_->db->Get(shield::ReadOptions(), key, &value);
    }
    const uint64_t end = NowNanos();
    if (traced_) get_perf_.AddDelta(before, PerfSums::Now());
    if (samples != nullptr) samples->Add(end - start);
    ++gets_;
    if (missing) {
      if (!s.IsNotFound()) tally_->Fail("get " + key + ": expected NotFound, got " + s.ToString());
    } else if (!s.ok()) {
      tally_->Fail("get " + key + ": " + s.ToString());
    } else if (!CheckValue(key, seqs_[id], spec_.value_size, value)) {
      tally_->Fail("get " + key + ": wrong or corrupt value");
    }
  }

  void Put(uint64_t id, Samples* samples, bool first = false) {
    ++tally_->attempted;
    const std::string key = KeyOf(id);
    const uint64_t seq = first ? 1 : ++last_seq_;
    MakeValue(key, seq, spec_.value_size, &value_);
    PerfSums before;
    if (traced_) before = PerfSums::Now();
    const uint64_t start = NowNanos();
    Status s;
    {
      Span span(kPut);
      s = inst_->db->Put(shield::WriteOptions(), key, value_);
    }
    const uint64_t end = NowNanos();
    if (traced_) put_perf_.AddDelta(before, PerfSums::Now());
    if (samples != nullptr) samples->Add(end - start);
    ++puts_;
    if (!s.ok()) {
      tally_->Fail("put " + key + ": " + s.ToString());
      return;
    }
    seqs_[id] = static_cast<uint32_t>(seq);
    put_bytes_ += kKeySize + spec_.value_size;
  }

  /// Seeded sample of verified Gets of written keys.
  void ReadBack(uint64_t seed, uint64_t count, Samples* samples) {
    Rng rng(seed);
    for (uint64_t i = 0; i < count; ++i) {
      Get(rng.Uniform(spec_.keys), false, samples);
    }
  }

  void SetTraced(bool on) {
    traced_ = on;
    SetTracing(on);
    shield::SetPerfLevel(on ? shield::PerfLevel::kEnableTime
                            : shield::PerfLevel::kEnableCount);
  }

  bool traced() const { return traced_; }
  uint64_t gets() const { return gets_; }
  uint64_t puts() const { return puts_; }
  uint64_t put_bytes() const { return put_bytes_; }
  const PerfSums& get_perf() const { return get_perf_; }
  const PerfSums& put_perf() const { return put_perf_; }

 private:
  const Spec& spec_;
  Tally* tally_;
  Instance* inst_ = nullptr;
  std::vector<uint32_t> seqs_;  // latest acknowledged version per item
  uint64_t last_seq_ = 1;  // the preload writes version 1 of every item
  std::string value_;
  bool traced_ = false;
  uint64_t gets_ = 0;
  uint64_t puts_ = 0;
  uint64_t put_bytes_ = 0;
  PerfSums get_perf_;
  PerfSums put_perf_;
};

/// Cumulative counters, read at the start and the end of the window.
enum Counter {
  kGets, kPuts, kPutBytes,                       // client
  kAppended, kSyncs, kSstOpens,                  // BenchEnv
  kOffloadJobs, kOffloadNs,                      // BenchCompactionService
  kFlushes, kFlushUs, kCompactions, kCompactionUs, kCompactionBytes,
  kProbes, kUseful,                              // BenchFilterPolicy
  kEncrypted, kDecrypted, kNetWaitUs,            // Statistics tickers
  kNumCounters,
};

struct Counters : std::array<uint64_t, kNumCounters> {
  Counters operator-(const Counters& o) const {
    Counters d;
    for (size_t i = 0; i < size(); ++i) d[i] = (*this)[i] - o[i];
    return d;
  }
};

Counters ReadCounters(Instance& inst, const Client& client) {
  Counters c{};
  c[kGets] = client.gets();
  c[kPuts] = client.puts();
  c[kPutBytes] = client.put_bytes();
  EnvCounters& io = inst.env->counters();
  c[kAppended] = io.append_bytes.load();
  c[kSyncs] = io.sync_calls.load();
  c[kSstOpens] = io.client_sst_opens.load();
  if (inst.offload) {
    c[kOffloadJobs] = inst.offload->jobs.load();
    c[kOffloadNs] = inst.offload->nanos.load();
  }
  if (inst.listener) {
    c[kFlushes] = inst.listener->flushes.load();
    c[kFlushUs] = inst.listener->flush_us.load();
    c[kCompactions] = inst.listener->compactions.load();
    c[kCompactionUs] = inst.listener->compaction_us.load();
    c[kCompactionBytes] = inst.listener->compaction_bytes_written.load();
  }
  if (inst.filter) {
    c[kProbes] = inst.filter->probes.load();
    c[kUseful] = inst.filter->useful.load();
  }
  if (inst.stats) {
    c[kEncrypted] = inst.stats->GetTickerCount(shield::Tickers::kCryptoBytesEncrypted);
    c[kDecrypted] = inst.stats->GetTickerCount(shield::Tickers::kCryptoBytesDecrypted);
    c[kNetWaitUs] = inst.stats->GetTickerCount(shield::Tickers::kDsNetworkWaitMicros);
  }
  return c;
}

// ---------------------------------------------------------------------
// Crypto kernels and environment

struct Kernels {
  double ctr_ns_per_kib = 0;
  double hmac_ns_per_kib = 0;
  double crc_ns_per_kib = 0;
};

template <typename Fn>
double BestNsPerKib(Fn&& fn) {
  constexpr int kIters = 256;
  double best = 1e300;
  for (int round = 0; round < 7; ++round) {
    const uint64_t start = NowNanos();
    for (int i = 0; i < kIters; ++i) fn(i);
    best = std::min(best, double(NowNanos() - start) / kIters / 4);
  }
  return best;
}

/// Times the public CTR, block-tag and CRC kernels on 4 KiB blocks.
Kernels MeasureKernels() {
  Kernels k;
  const std::string key(16, 'k');
  const std::string nonce(16, 'n');
  std::string block(4096, 'b');
  std::unique_ptr<shield::crypto::StreamCipher> cipher;
  if (!shield::crypto::NewStreamCipher(shield::crypto::CipherKind::kAes128Ctr,
                                       key, nonce, &cipher)
           .ok()) {
    return k;
  }
  auto auth = shield::crypto::NewBlockAuthenticator(
      shield::crypto::CipherKind::kAes128Ctr, key, nonce);
  char tag[shield::crypto::kBlockAuthTagSize];
  if (!auth || !auth->ComputeTag(0, {shield::Slice(block)}, tag).ok()) return k;
  volatile uint64_t sink = 0;
  k.ctr_ns_per_kib = BestNsPerKib([&](int i) {
    (void)cipher->CryptAt(uint64_t(i) * 4096, block.data(), block.size());
    sink = sink + uint8_t(block[i]);
  });
  k.hmac_ns_per_kib = BestNsPerKib([&](int) {
    sink = sink + auth->VerifyTag(0, shield::Slice(block),
                                  shield::Slice(tag, sizeof(tag)));
  });
  k.crc_ns_per_kib = BestNsPerKib([&](int i) {
    block[0] = char(i);
    sink = sink + shield::crc32c::Value(block.data(), block.size());
  });
  return k;
}

void PrintEnvironment(const Kernels& k) {
  char host[256] = "unknown";
  gethostname(host, sizeof(host) - 1);
  __builtin_cpu_init();
  const bool aes = __builtin_cpu_supports("aes") && __builtin_cpu_supports("sse2");
  const bool sha = __builtin_cpu_supports("sha") &&
                   __builtin_cpu_supports("sse4.1") &&
                   __builtin_cpu_supports("ssse3");
  const bool sse42 = __builtin_cpu_supports("sse4.2");
  printf("# env {\"host\": \"%s\", \"cores\": %u, \"build_type\": \"%s\", "
         "\"compiler\": \"%s\", \"aes\": \"%s\", \"sha256\": \"%s\", "
         "\"crc32c\": \"%s\", \"ctr_ns_per_kib\": %.1f, "
         "\"hmac_ns_per_kib\": %.1f, \"crc_ns_per_kib\": %.1f}\n",
         host, std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
         __VERSION__, aes ? "aes-ni" : "portable",
         sha ? "sha-ni" : "portable", sse42 ? "sse4.2" : "portable",
         k.ctr_ns_per_kib, k.hmac_ns_per_kib, k.crc_ns_per_kib);
}

double PeakRssMib() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---------------------------------------------------------------------
// Output

class Metrics {
 public:
  void Set(const std::string& name, double value, const char* unit) {
    values_[name] = {value, unit};
  }
  void Print(bool correct, const Tally& tally) const {
    printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
           ", \"metrics\": {",
           correct ? "true" : "false", tally.attempted, tally.failed);
    bool first = true;
    for (const auto& [name, v] : values_) {
      printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
             first ? "" : ", ", name.c_str(), v.first, v.second);
      first = false;
    }
    printf("}}\n");
  }

 private:
  std::map<std::string, std::pair<double, const char*>> values_;
};

// ---------------------------------------------------------------------

struct Args {
  const Spec* spec = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Spec& spec : kSpecs) {
        if (strcmp(spec.name, value) == 0) args->spec = &spec;
      }
      if (args->spec == nullptr) return false;
    } else if (flag == "--seed") {
      args->seed = strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0 && args->seconds <= 600)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (strcmp(value, "0") != 0 && strcmp(value, "1") != 0) return false;
      args->trace = value[0] - '0';
    } else if (flag == "--spans") {
      args->spans = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args->spec != nullptr && args->seconds > 0 &&
         args->trace >= 0;
}

int Run(const Args& args) {
  const Spec& spec = *args.spec;
  const bool trace = args.trace == 1;
  MarkClientThread();
  const Kernels kernels = MeasureKernels();
  PrintEnvironment(kernels);
  fflush(stdout);

  Tally tally;
  Client client(spec, &tally);
  Samples get_lat, put_lat;  // the window's
  std::vector<double> setup_s;
  std::vector<double> load_write_amp;
  std::unique_ptr<Instance> inst;
  // Each set-up opens a fresh DB and loads it from scratch; the window
  // then runs on the last one for the whole --seconds.
  const int setups = trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    inst.reset();  // close the previous set-up's DB before timing the next
    const uint64_t start = NowNanos();
    inst = OpenInstance(spec, trace);
    if (!inst) return 1;
    client.Attach(inst.get());
    const uint64_t opened = NowNanos();
    client.Preload(args.seed);
    const uint64_t loaded = NowNanos();
    Status s = inst->db->Flush();
    inst->db->WaitForIdle();
    const uint64_t flushed = NowNanos();
    if (s.ok()) s = inst->db->CompactRange(nullptr, nullptr);
    inst->db->WaitForIdle();
    fprintf(stderr, "set-up: open %.3f s, load %.3f s, flush %.3f s, "
            "compaction %.3f s\n", (opened - start) / 1e9,
            (loaded - opened) / 1e9, (flushed - loaded) / 1e9,
            (NowNanos() - flushed) / 1e9);
    if (!s.ok()) {
      fprintf(stderr, "set-up flush/compaction failed: %s\n",
              s.ToString().c_str());
      return 1;
    }
    load_write_amp.push_back(
        double(inst->env->counters().append_bytes.load()) /
        double(spec.keys * (kKeySize + spec.value_size)));
    if (spec.warm_scan) client.Scan();
    setup_s.push_back(double(NowNanos() - start) / 1e9);
  }

  // --- The timed window ---
  Rng rng(args.seed * 0x9e3779b97f4a7c15ull + 1);
  std::unique_ptr<ScrambledZipfian> zipf;
  if (spec.zipfian) zipf = std::make_unique<ScrambledZipfian>(spec.keys, 0.99);
  // Index 1 holds the traced slices of a traced run, index 0 the rest.
  uint64_t mode_ops[2] = {0, 0};
  uint64_t mode_ns[2] = {0, 0};
  uint64_t traced_gets = 0, traced_puts = 0;
  const Counters before = ReadCounters(*inst, client);
  const uint64_t window_start = NowNanos();
  const uint64_t deadline = window_start + uint64_t(args.seconds * 1e9);
  uint64_t slice_start = window_start;
  uint64_t now = window_start;
  for (uint64_t op = 0;; ++op) {
    now = NowNanos();
    if (now >= deadline) break;
    if (trace && now - slice_start >= kSliceNanos) {
      mode_ns[client.traced()] += now - slice_start;
      client.SetTraced(!client.traced());
      slice_start = now;
    }
    const uint64_t id = zipf ? zipf->Next(&rng) : rng.Uniform(spec.keys);
    const bool is_get = spec.get_fraction >= 1.0 ||
                        (spec.get_fraction > 0 &&
                         rng.NextDouble() < spec.get_fraction);
    if (is_get) {
      const bool missing = !spec.ds && op % kMissingEvery == 0;
      client.Get(id, missing, &get_lat);
      traced_gets += client.traced();
    } else {
      client.Put(id, &put_lat);
      traced_puts += client.traced();
    }
    ++mode_ops[client.traced()];
  }
  mode_ns[client.traced()] += now - slice_start;
  client.SetTraced(false);
  const uint64_t last_op = NowNanos();
  if (spec.get_fraction < 1.0) {
    Status s = inst->db->Flush();
    if (!s.ok()) tally.Fail("drain flush: " + s.ToString());
    inst->db->WaitForIdle();
  }
  const uint64_t window_end = NowNanos();
  const Counters w = ReadCounters(*inst, client) - before;
  const double window_s = double(window_end - window_start) / 1e9;
  const double drain_s =
      spec.get_fraction < 1.0 ? double(window_end - last_op) / 1e9 : 0;

  // Verify a sample of what the window left behind.
  client.ReadBack(args.seed ^ 0x7265616462616b00ull, spec.readback, nullptr);

  const uint64_t window_ops = w[kGets] + w[kPuts];
  const double live_bytes = double(inst->LiveBytes());
  const double unique_bytes = double(spec.keys * (kKeySize + spec.value_size));
  const double kds_calls = double(inst->kds->calls.load());
  const double kds_us = double(inst->kds->nanos.load()) / 1e3;
  inst.reset();  // joins the DB's threads before their spans are summed

  Metrics m;
  if (!trace) {
    m.Set("ops_per_s", double(window_ops) / window_s, "1/s");
    m.Set("write_amp",
          w[kPutBytes] > 0 ? double(w[kAppended]) / double(w[kPutBytes])
                           : Median(load_write_amp),
          "ratio");
    m.Set("space_amp", live_bytes / unique_bytes, "ratio");
    m.Set("setup_s", Median(setup_s), "s");
    m.Set("rss_mib", PeakRssMib(), "MiB");
    // Latencies are printed here rather than reported; README.md says why.
    fprintf(stderr, "%s: %" PRIu64 " ops in %.3f s, drain %.3f s\n",
            spec.name, window_ops, window_s, drain_s);
    auto print_latency = [](const char* kind, const Samples& lat) {
      if (lat.size() == 0) return;
      fprintf(stderr, "%s latency over %zu samples: mean %.2f, p50 %.2f, "
              "p99 %.2f us\n", kind, lat.size(), lat.MeanUs(),
              lat.PercentileUs(0.50), lat.PercentileUs(0.99));
    };
    print_latency("Get", get_lat);
    print_latency("Put", put_lat);
    fprintf(stderr, "set-ups");
    for (double s : setup_s) fprintf(stderr, " %.3f", s);
    fprintf(stderr, " s\n");
  } else {
    LayerTotals totals[kNumRoots][kNumLayers];
    CollectTotals(totals);
    const double tg = double(std::max<uint64_t>(traced_gets, 1));
    const double tp = double(std::max<uint64_t>(traced_puts, 1));
    const double ops = double(std::max<uint64_t>(window_ops, 1));
    uint64_t env_ns_get = 0, env_calls_get = 0, append_ns = 0;
    for (int l = kEnvRead; l <= kEnvMeta; ++l) {
      env_ns_get += totals[kUnderGet][l].total_ns;
      env_calls_get += totals[kUnderGet][l].count;
    }
    for (int r = 0; r < kNumRoots; ++r) append_ns += totals[r][kEnvAppend].total_ns;
    const PerfSums& gp = client.get_perf();
    const PerfSums& pp = client.put_perf();
    const double lookups = double(gp.cache_hits + gp.block_reads);
    const uint64_t stack_errors = SpanStackErrors();
    m.Set("lsm.get_us", double(totals[kUnderGet][kGet].total_ns) / tg / 1e3, "us");
    m.Set("lsm.get_self_us", double(totals[kUnderGet][kGet].self_ns) / tg / 1e3, "us");
    m.Set("lsm.put_us", double(totals[kUnderPut][kPut].total_ns) / tp / 1e3, "us");
    m.Set("lsm.put_self_us", double(totals[kUnderPut][kPut].self_ns) / tp / 1e3, "us");
    m.Set("lsm.table_opens_per_get",
          double(w[kSstOpens]) / double(std::max<uint64_t>(w[kGets], 1)), "count");
    m.Set("lsm.block_cache_hit_ratio", lookups > 0 ? double(gp.cache_hits) / lookups : 0, "ratio");
    m.Set("lsm.filter_useful_ratio",
          w[kProbes] > 0 ? double(w[kUseful]) / double(w[kProbes]) : 0, "ratio");
    m.Set("lsm.flush_count", double(w[kFlushes]), "count");
    m.Set("lsm.flush_us", double(w[kFlushUs]), "us");
    m.Set("lsm.compaction_count", double(w[kCompactions]), "count");
    m.Set("lsm.compaction_us", double(w[kCompactionUs]), "us");
    m.Set("lsm.compaction_bytes_written", double(w[kCompactionBytes]), "bytes");
    m.Set("lsm.write_stall_us", double(pp.stall_us) / tp, "us");
    m.Set("lsm.drain_s", drain_s, "s");
    m.Set("env.read_ops_per_get", double(totals[kUnderGet][kEnvRead].count) / tg, "count");
    m.Set("env.read_kib_per_get", double(totals[kUnderGet][kEnvRead].bytes) / 1024 / tg, "KiB");
    m.Set("env.read_us_per_get", double(env_ns_get) / tg / 1e3, "us");
    m.Set("env.append_kib", double(w[kAppended]) / 1024 / ops, "KiB/op");
    m.Set("env.append_us",
          double(append_ns) / 1e3 / double(std::max<uint64_t>(mode_ops[1], 1)), "us/op");
    m.Set("env.sync_count", double(w[kSyncs]), "count");
    m.Set("crypto.ctr_ns_per_kib", kernels.ctr_ns_per_kib, "ns");
    m.Set("crypto.hmac_ns_per_kib", kernels.hmac_ns_per_kib, "ns");
    m.Set("crypto.crc_ns_per_kib", kernels.crc_ns_per_kib, "ns");
    m.Set("crypto.decrypt_us_per_get", double(gp.decrypt_us) / tg, "us");
    m.Set("crypto.hmac_us_per_get", double(gp.hmac_us) / tg, "us");
    m.Set("crypto.encrypt_bytes", double(w[kEncrypted]) / ops, "B/op");
    m.Set("crypto.decrypt_bytes", double(w[kDecrypted]) / ops, "B/op");
    m.Set("shield.wal_write_us_per_put", double(pp.wal_us) / tp, "us");
    m.Set("shield.keystream_stall_us", double(pp.keystream_stall_us) / tp, "us");
    m.Set("kds.calls", kds_calls, "count");
    m.Set("kds.us", kds_us, "us");
    m.Set("kds.us_per_get", double(totals[kUnderGet][kKds].total_ns) / tg / 1e3, "us");
    m.Set("ds.offload_jobs", double(w[kOffloadJobs]), "count");
    m.Set("ds.offload_us", double(w[kOffloadNs]) / 1e3, "us");
    m.Set("ds.round_trips_per_get", spec.ds ? double(env_calls_get) / tg : 0, "count");
    m.Set("ds.network_wait_us", double(w[kNetWaitUs]), "us");
    const double untraced_rate = double(mode_ops[0]) / double(std::max<uint64_t>(mode_ns[0], 1));
    const double traced_rate = double(mode_ops[1]) / double(std::max<uint64_t>(mode_ns[1], 1));
    m.Set("trace.overhead_frac", untraced_rate > 0 ? 1.0 - traced_rate / untraced_rate : 0, "ratio");
    m.Set("trace.stack_errors", double(stack_errors), "count");
    if (stack_errors != 0) tally.Fail("trace: unbalanced span stack");
    if (!args.spans.empty()) {
      const uint64_t dropped = WriteSpans(args.spans);
      fprintf(stderr, "spans written to %s (%" PRIu64 " past the cap dropped)\n",
              args.spans.c_str(), dropped);
    }
  }
  for (const std::string& note : tally.notes) fprintf(stderr, "FAILED: %s\n", note.c_str());
  m.Print(tally.failed == 0, tally);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // A fixed mmap threshold turns off glibc's dynamic threshold, whose
  // history-dependent growth made peak RSS vary by a quarter between
  // identical runs. Blocks of 2 MiB and more (the in-memory Env's file
  // buffers, memtable and SST build buffers) are then mapped and
  // returned to the system as soon as they are freed.
  mallopt(M_MMAP_THRESHOLD, 2 << 20);
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    fprintf(stderr,
            "usage: %s --workload <overwrite|read_hot|read_cold|ds_ycsb_a> "
            "--seed <n> --seconds <s> --trace <0|1> [--spans <path>]\n",
            argv[0]);
    return 64;
  }
  return perfbench::Run(args);
}
