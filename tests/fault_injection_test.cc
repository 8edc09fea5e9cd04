// Fault-injection tests: seeded, deterministic fault schedules across
// the storage env (FaultInjectionEnv), the KDS (FaultyKds) and the
// disaggregated-storage fabric (NetworkSimulator/RemoteEnv), plus the
// retry/backoff machinery that rides them out. The randomized harness
// runs open/write/flush/crash/reopen cycles under injected faults and
// asserts — against a shadow in-memory model — that no acknowledged
// durable write is ever lost (EncFS and SHIELD).
//
// Stress knobs (also used by the `fault_injection_stress` CTest entry):
//   SHIELD_FAULT_SEED_BASE   first seed of the randomized schedules
//   SHIELD_FAULT_SEED_COUNT  seeds per engine configuration

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "ds/storage_service.h"
#include "env/fault_injection_env.h"
#include "env/readahead_file.h"
#include "gtest/gtest.h"
#include "kds/faulty_kds.h"
#include "kds/local_kds.h"
#include "lsm/compaction_service.h"
#include "lsm/db.h"
#include "sim/sim_clock.h"
#include "util/random.h"
#include "util/retry.h"
#include "util/statistics.h"
#include "util/status.h"

namespace shield {
namespace {

uint64_t SeedBase() {
  const char* v = std::getenv("SHIELD_FAULT_SEED_BASE");
  return v != nullptr ? strtoull(v, nullptr, 10) : 1;
}

int SeedCount() {
  const char* v = std::getenv("SHIELD_FAULT_SEED_COUNT");
  return v != nullptr ? atoi(v) : 13;
}

// --- Status / RetryPolicy ---------------------------------------------

TEST(StatusTransientTest, ClassifiesTransientCodes) {
  EXPECT_TRUE(Status::TryAgain("x").IsTryAgain());
  EXPECT_TRUE(Status::TryAgain("x").IsTransient());
  EXPECT_TRUE(Status::Busy("x").IsTransient());
  EXPECT_FALSE(Status::IOError("x").IsTransient());
  EXPECT_FALSE(Status::Corruption("x").IsTransient());
  EXPECT_FALSE(Status::OK().IsTransient());
  EXPECT_NE(Status::TryAgain("x").ToString().find("TryAgain"),
            std::string::npos);
}

TEST(RetryPolicyTest, RetriesTransientUntilSuccess) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_micros = 10;
  policy.max_backoff_micros = 50;
  int calls = 0;
  int attempts = 0;
  Status s = RunWithRetry(
      policy,
      [&] {
        calls++;
        return calls < 3 ? Status::TryAgain("flaky") : Status::OK();
      },
      &attempts);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(3, calls);
  EXPECT_EQ(3, attempts);
}

TEST(RetryPolicyTest, DoesNotRetryPermanentErrors) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  int calls = 0;
  Status s = RunWithRetry(policy, [&] {
    calls++;
    return Status::IOError("disk gone");
  });
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(1, calls);
}

TEST(RetryPolicyTest, ExhaustsAttemptsAndReturnsLastError) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_micros = 10;
  policy.max_backoff_micros = 20;
  int calls = 0;
  Status s = RunWithRetry(policy, [&] {
    calls++;
    return Status::Busy("still down");
  });
  EXPECT_TRUE(s.IsTransient());
  EXPECT_EQ(3, calls);
}

TEST(RetryPolicyTest, BackoffIsDeterministicAndCapped) {
  RetryPolicy policy;
  policy.initial_backoff_micros = 100;
  policy.max_backoff_micros = 1000;
  policy.multiplier = 2.0;
  policy.seed = 77;

  uint64_t state_a = policy.seed;
  uint64_t state_b = policy.seed;
  for (int attempt = 1; attempt <= 8; attempt++) {
    const uint64_t a = policy.BackoffMicros(attempt, &state_a);
    const uint64_t b = policy.BackoffMicros(attempt, &state_b);
    EXPECT_EQ(a, b) << "attempt " << attempt;
    EXPECT_LE(a, policy.max_backoff_micros);
  }
  EXPECT_EQ(0u, policy.BackoffMicros(1, &state_a));  // no sleep before 1st
}

// --- FaultInjectionEnv ------------------------------------------------

TEST(FaultInjectionEnvTest, CrashKeepsOnlySyncedPrefix) {
  auto base = NewMemEnv();
  FaultInjectionOptions fopts;
  fopts.torn_write_probability = 0.0;  // exact synced prefix
  FaultInjectionEnv fenv(base.get(), fopts);

  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(fenv.NewWritableFile("/f1", &file).ok());
  ASSERT_TRUE(file->Append("synced-part").ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Append("unsynced-tail").ok());
  // No Sync, no Close before the crash.
  ASSERT_TRUE(fenv.SimulateCrash().ok());
  file.reset();

  std::string contents;
  ASSERT_TRUE(ReadFileToString(base.get(), "/f1", &contents).ok());
  EXPECT_EQ("synced-part", contents);
  EXPECT_EQ(1u, fenv.crashes());
  EXPECT_EQ(strlen("unsynced-tail"), fenv.dropped_bytes());
}

TEST(FaultInjectionEnvTest, CloseDoesNotMakeDataDurable) {
  auto base = NewMemEnv();
  FaultInjectionOptions fopts;
  fopts.torn_write_probability = 0.0;
  FaultInjectionEnv fenv(base.get(), fopts);

  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(fenv.NewWritableFile("/f2", &file).ok());
  ASSERT_TRUE(file->Append("never-synced").ok());
  ASSERT_TRUE(file->Close().ok());
  file.reset();
  ASSERT_TRUE(fenv.SimulateCrash().ok());

  std::string contents;
  ASSERT_TRUE(ReadFileToString(base.get(), "/f2", &contents).ok());
  EXPECT_EQ("", contents);
}

TEST(FaultInjectionEnvTest, TornTailIsAPrefixOfTheUnsyncedData) {
  auto base = NewMemEnv();
  FaultInjectionOptions fopts;
  fopts.seed = 1234;
  fopts.torn_write_probability = 1.0;
  FaultInjectionEnv fenv(base.get(), fopts);

  const std::string synced = "AAAA";
  const std::string unsynced = "BBBBBBBB";
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(fenv.NewWritableFile("/f3", &file).ok());
  ASSERT_TRUE(file->Append(synced).ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Append(unsynced).ok());
  ASSERT_TRUE(fenv.SimulateCrash().ok());
  file.reset();

  std::string contents;
  ASSERT_TRUE(ReadFileToString(base.get(), "/f3", &contents).ok());
  ASSERT_GE(contents.size(), synced.size());
  ASSERT_LE(contents.size(), synced.size() + unsynced.size());
  EXPECT_EQ((synced + unsynced).substr(0, contents.size()), contents);
}

TEST(FaultInjectionEnvTest, KindMaskTargetsOnlySelectedFiles) {
  auto base = NewMemEnv();
  FaultInjectionOptions fopts;
  fopts.write_error_probability = 1.0;
  fopts.fault_kind_mask = FileKindBit(FileKind::kWal);
  FaultInjectionEnv fenv(base.get(), fopts);

  std::unique_ptr<WritableFile> wal;
  ASSERT_TRUE(fenv.NewWritableFile("/db/000001.log", &wal).ok());
  EXPECT_FALSE(wal->Append("x").ok());  // WAL writes always fail

  std::unique_ptr<WritableFile> sst;
  ASSERT_TRUE(fenv.NewWritableFile("/db/000002.sst", &sst).ok());
  EXPECT_TRUE(sst->Append("x").ok());  // SSTs are outside the mask
  EXPECT_GT(fenv.injected_errors(), 0u);
}

TEST(FaultInjectionEnvTest, TransientVersusPermanentErrors) {
  auto base = NewMemEnv();
  ASSERT_TRUE(WriteStringToFile(base.get(), "payload", "/f4", true).ok());

  FaultInjectionOptions fopts;
  fopts.read_error_probability = 1.0;
  fopts.permanent_error_ratio = 0.0;
  FaultInjectionEnv fenv(base.get(), fopts);
  {
    std::unique_ptr<SequentialFile> file;
    ASSERT_TRUE(fenv.NewSequentialFile("/f4", &file).ok());
    char scratch[16];
    Slice result;
    Status s = file->Read(sizeof(scratch), &result, scratch);
    EXPECT_TRUE(s.IsTransient()) << s.ToString();
  }

  fopts.permanent_error_ratio = 1.0;
  fenv.SetOptions(fopts);
  {
    std::unique_ptr<SequentialFile> file;
    ASSERT_TRUE(fenv.NewSequentialFile("/f4", &file).ok());
    char scratch[16];
    Slice result;
    Status s = file->Read(sizeof(scratch), &result, scratch);
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
  }
}

TEST(FaultInjectionEnvTest, ShortReadsOnlyOnPositionalReads) {
  auto base = NewMemEnv();
  const std::string payload(1024, 'p');
  ASSERT_TRUE(WriteStringToFile(base.get(), payload, "/f5", true).ok());

  FaultInjectionOptions fopts;
  fopts.seed = 7;
  fopts.short_read_probability = 1.0;
  FaultInjectionEnv fenv(base.get(), fopts);

  // Positional read: shortened, OK status.
  std::unique_ptr<RandomAccessFile> ra;
  ASSERT_TRUE(fenv.NewRandomAccessFile("/f5", &ra).ok());
  std::string scratch(payload.size(), 0);
  Slice result;
  ASSERT_TRUE(ra->Read(0, payload.size(), &result, scratch.data()).ok());
  EXPECT_LT(result.size(), payload.size());

  // Sequential read: never shortened (EOF semantics must stay exact).
  std::unique_ptr<SequentialFile> seq;
  ASSERT_TRUE(fenv.NewSequentialFile("/f5", &seq).ok());
  std::string seq_scratch(payload.size(), 0);
  Slice seq_result;
  ASSERT_TRUE(
      seq->Read(payload.size(), &seq_result, seq_scratch.data()).ok());
  EXPECT_EQ(payload.size(), seq_result.size());
  EXPECT_GT(fenv.injected_short_reads(), 0u);
}

// --- Readahead under injected faults ----------------------------------

// Every positional read torn: the prefetch window can never fill, so
// the wrapper must degrade to exact direct reads. Whatever bytes come
// back must be byte-correct — a short result is acceptable, a wrong
// one never is.
TEST(ReadaheadFaultTest, TornPrefetchDegradesWithoutCorruption) {
  auto base = NewMemEnv();
  Random rnd(9);
  std::string payload;
  for (int i = 0; i < 128 * 1024; i++) {
    payload.push_back(static_cast<char>(rnd.Uniform(256)));
  }
  ASSERT_TRUE(WriteStringToFile(base.get(), payload, "/ra", true).ok());

  FaultInjectionOptions fopts;
  fopts.seed = 11;
  fopts.short_read_probability = 1.0;
  FaultInjectionEnv fenv(base.get(), fopts);
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(fenv.NewRandomAccessFile("/ra", &file).ok());

  ReadaheadRandomAccessFile ra(file.get(), 4 * 1024, 64 * 1024,
                               /*stats=*/nullptr);
  uint64_t offset = 0;
  while (offset < payload.size()) {
    char scratch[1024];
    Slice result;
    const size_t want =
        std::min<size_t>(sizeof(scratch), payload.size() - offset);
    ASSERT_TRUE(ra.Read(offset, want, &result, scratch).ok());
    ASSERT_LE(result.size(), want);
    EXPECT_EQ(0, memcmp(result.data(), payload.data() + offset,
                        result.size()))
        << "corrupt readahead bytes at offset " << offset;
    offset += std::max<size_t>(result.size(), 1);
  }
  EXPECT_GT(fenv.injected_short_reads(), 0u);

  // Faults off: the same wrapper must serve the whole file exactly,
  // now actually hitting the prefetch window.
  fenv.SetFaultsEnabled(false);
  auto stats = CreateDBStatistics();
  ReadaheadRandomAccessFile healthy(file.get(), 4 * 1024, 64 * 1024,
                                    stats.get());
  for (uint64_t off = 0; off < payload.size(); off += 1024) {
    char scratch[1024];
    Slice result;
    const size_t want = std::min<size_t>(1024, payload.size() - off);
    ASSERT_TRUE(healthy.Read(off, want, &result, scratch).ok());
    ASSERT_EQ(want, result.size());
    ASSERT_EQ(0, memcmp(result.data(), payload.data() + off, want));
  }
  EXPECT_GT(stats->GetTickerCount(Tickers::kIoReadaheadHit), 0u);
  EXPECT_GT(stats->GetTickerCount(Tickers::kIoReadaheadBytes), 0u);
}

// End-to-end: a readahead scan and MultiGet batches over an encrypted
// DB keep returning exact values while the storage layer tears reads.
// (Block reads retry transient shorts; a short coalesced MultiGet span
// falls back to per-block reads.)
TEST(ReadaheadFaultTest, ScanAndMultiGetSurviveShortReads) {
  auto base = NewMemEnv();
  FaultInjectionOptions fopts;
  fopts.seed = 23;
  FaultInjectionEnv fenv(base.get(), fopts);
  fenv.SetFaultsEnabled(false);  // clean fill

  auto kds = std::make_shared<LocalKds>();
  Options options;
  options.env = &fenv;
  options.write_buffer_size = 16 * 1024;
  options.encryption.mode = EncryptionMode::kShield;
  options.encryption.kds = kds;

  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);

  std::map<std::string, std::string> model;
  for (int i = 0; i < 1200; i++) {
    char key[32];
    snprintf(key, sizeof(key), "key%05d", i);
    const std::string value = "value" + std::to_string(i * 2654435761ull);
    ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
    model[key] = value;
    if (i % 400 == 399) {
      ASSERT_TRUE(db->Flush().ok());
      db->WaitForIdle();
    }
  }
  ASSERT_TRUE(db->Flush().ok());
  db->WaitForIdle();

  fopts.short_read_probability = 0.1;
  fenv.SetOptions(fopts);
  fenv.SetFaultsEnabled(true);

  ReadOptions scan_options;
  scan_options.readahead_size = 32 * 1024;
  scan_options.fill_cache = false;
  std::unique_ptr<Iterator> it(db->NewIterator(scan_options));
  auto mit = model.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++mit) {
    ASSERT_NE(model.end(), mit);
    EXPECT_EQ(mit->first, it->key().ToString());
    EXPECT_EQ(mit->second, it->value().ToString());
  }
  ASSERT_TRUE(it->status().ok()) << it->status().ToString();
  EXPECT_EQ(model.end(), mit);
  it.reset();

  ReadOptions batch_options;
  batch_options.fill_cache = false;
  std::vector<std::string> batch;
  for (int i = 0; i < 1200; i += 3) {
    char key[32];
    snprintf(key, sizeof(key), "key%05d", i);
    batch.push_back(key);
  }
  std::vector<Slice> keys(batch.begin(), batch.end());
  std::vector<std::string> values;
  std::vector<Status> statuses = db->MultiGet(batch_options, keys, &values);
  for (size_t i = 0; i < batch.size(); i++) {
    ASSERT_TRUE(statuses[i].ok())
        << batch[i] << ": " << statuses[i].ToString();
    EXPECT_EQ(model[batch[i]], values[i]) << batch[i];
  }
  EXPECT_GT(fenv.injected_short_reads(), 0u);
}

// --- FaultyKds --------------------------------------------------------

TEST(FaultyKdsTest, OutageWindowByRequestCount) {
  auto base = std::make_shared<LocalKds>();
  FaultyKds kds(base, FaultyKdsOptions());
  kds.FailNextRequests(2);

  Dek dek;
  EXPECT_TRUE(kds.CreateDek("s1", crypto::CipherKind::kAes128Ctr, &dek)
                  .IsTransient());
  EXPECT_TRUE(kds.CreateDek("s1", crypto::CipherKind::kAes128Ctr, &dek)
                  .IsTransient());
  EXPECT_TRUE(kds.CreateDek("s1", crypto::CipherKind::kAes128Ctr, &dek).ok());
  EXPECT_EQ(2u, kds.outage_rejections());

  Dek fetched;
  EXPECT_TRUE(kds.GetDek("s1", dek.id, &fetched).ok());
  EXPECT_EQ(dek.key, fetched.key);
}

TEST(FaultyKdsTest, WallClockOutageHeals) {
  auto base = std::make_shared<LocalKds>();
  FaultyKds kds(base, FaultyKdsOptions());

  Dek dek;
  ASSERT_TRUE(kds.CreateDek("s1", crypto::CipherKind::kAes128Ctr, &dek).ok());

  kds.StartOutageFor(60ull * 1000 * 1000);  // a minute — heal manually
  Dek fetched;
  EXPECT_TRUE(kds.GetDek("s1", dek.id, &fetched).IsTransient());
  kds.HealOutage();
  EXPECT_TRUE(kds.GetDek("s1", dek.id, &fetched).ok());
}

TEST(FaultyKdsTest, StaleReplicaServesDeletedDek) {
  auto base = std::make_shared<LocalKds>();
  FaultyKdsOptions fopts;
  fopts.stale_probability = 1.0;
  FaultyKds kds(base, fopts);

  Dek dek;
  ASSERT_TRUE(kds.CreateDek("s1", crypto::CipherKind::kAes128Ctr, &dek).ok());
  ASSERT_TRUE(kds.DeleteDek("s1", dek.id).ok());

  // The base KDS no longer has it, but the "stale replica" still does.
  Dek stale;
  EXPECT_TRUE(kds.GetDek("s1", dek.id, &stale).ok());
  EXPECT_EQ(dek.key, stale.key);
  EXPECT_GE(kds.stale_served(), 1u);
}

// --- NetworkSimulator fault modes ------------------------------------

TEST(NetworkFaultTest, PartitionFailsTransferUntilHealed) {
  NetworkSimOptions nopts;
  nopts.rtt_micros = 0;
  NetworkSimulator net(nopts);

  EXPECT_TRUE(net.TryTransfer(100, true).ok());
  net.StartPartition();
  EXPECT_TRUE(net.partitioned());
  EXPECT_TRUE(net.TryTransfer(100, true).IsTransient());
  net.HealPartition();
  EXPECT_FALSE(net.partitioned());
  EXPECT_TRUE(net.TryTransfer(100, true).ok());
  EXPECT_GE(net.injected_faults(), 1u);
}

TEST(NetworkFaultTest, TimedPartitionAutoHeals) {
  sim::SimClock clock;
  NetworkSimOptions nopts;
  nopts.rtt_micros = 0;
  nopts.clock = &clock;
  NetworkSimulator net(nopts);

  net.StartPartitionFor(2000);
  EXPECT_TRUE(net.TryTransfer(1, true).IsTransient());
  clock.AdvanceBy(1999);
  EXPECT_TRUE(net.partitioned());
  EXPECT_TRUE(net.TryTransfer(1, true).IsTransient());
  clock.AdvanceBy(1);
  EXPECT_TRUE(net.TryTransfer(1, true).ok());
  EXPECT_FALSE(net.partitioned());
}

TEST(NetworkFaultTest, PacketErrorsFailRequests) {
  NetworkSimOptions nopts;
  nopts.rtt_micros = 0;
  nopts.error_probability = 1.0;
  NetworkSimulator net(nopts);
  EXPECT_TRUE(net.TryTransfer(100, true).IsTransient());
  EXPECT_GE(net.injected_faults(), 1u);
}

// --- RemoteEnv (disaggregated storage) under fabric faults ------------

TEST(RemoteEnvFaultTest, RetriesRideOutPacketErrors) {
  auto backing = NewMemEnv();
  NetworkSimOptions nopts;
  nopts.rtt_micros = 10;
  nopts.bandwidth_bytes_per_sec = 10ull * 1000 * 1000 * 1000;
  nopts.fault_seed = 42;
  nopts.error_probability = 0.1;  // every request flips a seeded coin
  StorageService service(backing.get(), nopts);
  auto remote = NewRemoteEnv(&service, nullptr);

  Options options;
  options.env = remote.get();
  options.write_buffer_size = 16 * 1024;

  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);

  WriteOptions synced;
  synced.sync = true;
  for (int i = 0; i < 200; i++) {
    const std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(db->Put(i % 4 == 0 ? synced : WriteOptions(), key,
                        "v" + std::to_string(i))
                    .ok())
        << i;
  }
  ASSERT_TRUE(db->Flush().ok());
  for (int i = 0; i < 200; i++) {
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), "k" + std::to_string(i), &value).ok())
        << i;
    EXPECT_EQ("v" + std::to_string(i), value);
  }
  db.reset();

  // Reopen over the same faulty fabric: recovery must retry too.
  DB* raw2 = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw2).ok());
  std::unique_ptr<DB> reopened(raw2);
  for (int i = 0; i < 200; i++) {
    std::string value;
    ASSERT_TRUE(
        reopened->Get(ReadOptions(), "k" + std::to_string(i), &value).ok())
        << i;
  }
  EXPECT_GT(service.network()->injected_faults(), 0u)
      << "the schedule never actually injected a fault";
}

TEST(RemoteEnvFaultTest, ShortPartitionHealsWithinRetryBudget) {
  auto backing = NewMemEnv();
  NetworkSimOptions nopts;
  nopts.rtt_micros = 10;
  nopts.bandwidth_bytes_per_sec = 10ull * 1000 * 1000 * 1000;
  StorageService service(backing.get(), nopts);
  auto remote = NewRemoteEnv(&service, nullptr);

  Options options;
  options.env = remote.get();
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);

  // 500 us partition vs a ~3 ms client retry budget: the write must
  // succeed without the application ever seeing the fault.
  service.network()->StartPartitionFor(500);
  WriteOptions synced;
  synced.sync = true;
  Status s = db->Put(synced, "key", "value");
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_GE(service.network()->injected_faults(), 1u);

  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), "key", &value).ok());
  EXPECT_EQ("value", value);
}

// --- Offloaded compaction fallback ------------------------------------

/// A compaction service whose requests always fail transiently — an
/// unreachable or overloaded remote worker.
class UnavailableCompactionService : public CompactionService {
 public:
  Status RunCompaction(const CompactionJobSpec& /*job*/,
                       CompactionJobResult* /*result*/) override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return Status::TryAgain("compaction worker unreachable");
  }
  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> calls_{0};
};

TEST(OffloadFallbackTest, FallsBackToLocalCompaction) {
  auto env = NewMemEnv();
  UnavailableCompactionService service;

  Options options;
  options.env = env.get();
  options.write_buffer_size = 16 * 1024;
  options.compaction_service = &service;
  options.offload_fallback_to_local = true;
  options.statistics = CreateDBStatistics();

  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);

  for (int i = 0; i < 400; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), "key" + std::to_string(i),
                        std::string(100, 'v'))
                    .ok());
  }
  Status s = db->CompactRange(nullptr, nullptr);
  EXPECT_TRUE(s.ok()) << s.ToString();
  db->WaitForIdle();

  EXPECT_GE(service.calls(), 2u);  // the retry budget was spent first
  std::string fallbacks;
  ASSERT_TRUE(db->GetProperty("shield.offload-fallbacks", &fallbacks));
  EXPECT_GE(strtoull(fallbacks.c_str(), nullptr, 10), 1u);

  for (int i = 0; i < 400; i++) {
    std::string value;
    ASSERT_TRUE(
        db->Get(ReadOptions(), "key" + std::to_string(i), &value).ok())
        << i;
    EXPECT_EQ(std::string(100, 'v'), value);
  }
}

TEST(OffloadFallbackTest, NoFallbackSurfacesTheError) {
  auto env = NewMemEnv();
  UnavailableCompactionService service;

  Options options;
  options.env = env.get();
  options.compaction_service = &service;
  options.offload_fallback_to_local = false;

  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);

  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(
        db->Put(WriteOptions(), "key" + std::to_string(i), "value").ok());
  }
  Status s = db->CompactRange(nullptr, nullptr);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsTransient()) << s.ToString();
  EXPECT_GE(service.calls(), 2u);
}

// --- Hardened recovery -------------------------------------------------

TEST(RecoveryHardeningTest, TornManifestTailToleratedUnlessParanoid) {
  auto env = NewMemEnv();
  Options options;
  options.env = env.get();

  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  {
    std::unique_ptr<DB> db(raw);
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(
          db->Put(WriteOptions(), "key" + std::to_string(i), "value").ok());
    }
    ASSERT_TRUE(db->Flush().ok());
  }

  // Damage the MANIFEST tail: append a well-formed log record whose
  // checksum is wrong, as a bit-flipped crash remnant would leave. (A
  // record that merely runs past EOF is indistinguishable from a torn
  // tail and is always tolerated; a checksum mismatch is reported.)
  std::vector<std::string> children;
  ASSERT_TRUE(env->GetChildren("/db", &children).ok());
  std::string manifest;
  for (const std::string& child : children) {
    if (child.compare(0, 9, "MANIFEST-") == 0) {
      manifest = "/db/" + child;
    }
  }
  ASSERT_FALSE(manifest.empty());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env.get(), manifest, &contents).ok());
  const std::string payload(20, 'z');
  char header[7];
  header[0] = header[1] = header[2] = header[3] = '\x5a';  // bad crc
  header[4] = static_cast<char>(payload.size());
  header[5] = 0;
  header[6] = 1;  // kFullType
  contents.append(header, sizeof(header));
  contents.append(payload);
  ASSERT_TRUE(WriteStringToFile(env.get(), contents, manifest, true).ok());

  // Paranoid mode refuses the damaged descriptor...
  Options paranoid = options;
  paranoid.paranoid_checks = true;
  DB* raw_paranoid = nullptr;
  Status ps = DB::Open(paranoid, "/db", &raw_paranoid);
  ASSERT_FALSE(ps.ok());
  EXPECT_TRUE(ps.IsCorruption()) << ps.ToString();

  // ...default mode salvages the intact prefix and serves all data.
  DB* raw_default = nullptr;
  Status ds = DB::Open(options, "/db", &raw_default);
  ASSERT_TRUE(ds.ok()) << ds.ToString();
  std::unique_ptr<DB> recovered(raw_default);
  for (int i = 0; i < 100; i++) {
    std::string value;
    ASSERT_TRUE(
        recovered->Get(ReadOptions(), "key" + std::to_string(i), &value).ok())
        << i;
    EXPECT_EQ("value", value);
  }
}

TEST(RecoveryHardeningTest, WalTruncatedBelowShieldHeaderTolerated) {
  auto env = NewMemEnv();
  auto kds = std::make_shared<LocalKds>();
  Options options;
  options.env = env.get();
  options.encryption.mode = EncryptionMode::kShield;
  options.encryption.kds = kds;
  options.encryption.wal_buffer_size = 512;
  options.statistics = CreateDBStatistics();

  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  {
    std::unique_ptr<DB> db(raw);
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), "flushed" + std::to_string(i),
                          "value")
                      .ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    // A little unsynced data so the live WAL is non-trivial.
    ASSERT_TRUE(db->Put(WriteOptions(), "tail", "lost").ok());
  }

  // Truncate the newest WAL below the 64-byte SHIELD file header — a
  // crash during the very first buffered append.
  std::vector<std::string> children;
  ASSERT_TRUE(env->GetChildren("/db", &children).ok());
  std::string newest_log;
  uint64_t newest_number = 0;
  for (const std::string& child : children) {
    const size_t dot = child.find(".log");
    if (dot != std::string::npos) {
      const uint64_t number = strtoull(child.c_str(), nullptr, 10);
      if (number >= newest_number) {
        newest_number = number;
        newest_log = "/db/" + child;
      }
    }
  }
  ASSERT_FALSE(newest_log.empty());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env.get(), newest_log, &contents).ok());
  ASSERT_TRUE(WriteStringToFile(env.get(), contents.substr(0, 10), newest_log,
                                true)
                  .ok());

  // Paranoid mode surfaces the truncation...
  Options paranoid = options;
  paranoid.paranoid_checks = true;
  DB* raw_paranoid = nullptr;
  EXPECT_FALSE(DB::Open(paranoid, "/db", &raw_paranoid).ok());

  // ...default mode salvages: everything flushed is still there. All
  // three opens count into one Statistics; judge the last one's share.
  const uint64_t salvaged_before =
      options.statistics->GetTickerCount(Tickers::kLsmRecoverySalvagedLogs);
  DB* raw_default = nullptr;
  Status s = DB::Open(options, "/db", &raw_default);
  ASSERT_TRUE(s.ok()) << s.ToString();
  std::unique_ptr<DB> recovered(raw_default);
  for (int i = 0; i < 100; i++) {
    std::string value;
    ASSERT_TRUE(recovered
                    ->Get(ReadOptions(), "flushed" + std::to_string(i),
                          &value)
                    .ok())
        << i;
  }
  std::string salvaged;
  ASSERT_TRUE(
      recovered->GetProperty("shield.recovery-salvaged-logs", &salvaged));
  EXPECT_GE(strtoull(salvaged.c_str(), nullptr, 10), salvaged_before + 1);
}

TEST(RecoveryHardeningTest, ShieldRidesOutFlakyKds) {
  auto env = NewMemEnv();
  auto local = std::make_shared<LocalKds>();
  FaultyKdsOptions fopts;
  fopts.seed = 9;
  fopts.error_probability = 0.3;  // well inside the 8-attempt budget
  auto faulty = std::make_shared<FaultyKds>(local, fopts);

  Options options;
  options.env = env.get();
  options.write_buffer_size = 16 * 1024;
  options.encryption.mode = EncryptionMode::kShield;
  options.encryption.kds = faulty;

  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  {
    std::unique_ptr<DB> db(raw);
    for (int i = 0; i < 300; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), "key" + std::to_string(i),
                          std::string(100, 'v'))
                      .ok())
          << i;
    }
    ASSERT_TRUE(db->Flush().ok());
  }

  DB* raw2 = nullptr;
  Status s = DB::Open(options, "/db", &raw2);
  ASSERT_TRUE(s.ok()) << s.ToString();
  std::unique_ptr<DB> reopened(raw2);
  for (int i = 0; i < 300; i++) {
    std::string value;
    ASSERT_TRUE(
        reopened->Get(ReadOptions(), "key" + std::to_string(i), &value).ok())
        << i;
  }
  EXPECT_GT(faulty->injected_errors(), 0u);
}

// --- Randomized seeded schedules --------------------------------------

bool IsHalted(DB* db) {
  std::string state;
  return db->GetProperty("shield.error-handler-state", &state) &&
         state == "halted";
}

/// One full fault schedule: several cycles of (verify, faulty workload,
/// crash). A shadow model tracks what the DB acknowledged; `dirty`
/// holds keys whose durable value is ambiguous (written since the last
/// durability barrier, or whose write failed). After each crash, clean
/// keys must match the model exactly; dirty keys are re-synced from the
/// recovered DB (any acknowledged-but-unsynced value may legitimately
/// have been lost).
void RunFaultSchedule(uint64_t seed, EncryptionMode mode,
                      size_t wal_buffer) {
  SCOPED_TRACE("schedule seed " + std::to_string(seed));

  auto base = NewMemEnv();
  FaultInjectionOptions fopts;
  fopts.seed = seed;
  fopts.read_error_probability = 0.02;
  fopts.write_error_probability = 0.02;
  fopts.metadata_error_probability = 0.01;
  fopts.permanent_error_ratio = 0.1;
  fopts.short_read_probability = 0.02;
  fopts.torn_write_probability = 0.5;
  FaultInjectionEnv fenv(base.get(), fopts);

  auto kds = std::make_shared<LocalKds>();
  auto make_options = [&] {
    Options options;
    options.env = &fenv;
    options.write_buffer_size = 16 * 1024;
    options.encryption.mode = mode;
    options.encryption.wal_buffer_size = wal_buffer;
    if (mode == EncryptionMode::kEncFS) {
      options.encryption.instance_key = std::string(16, 'k');
    }
    if (mode == EncryptionMode::kShield) {
      options.encryption.kds = kds;  // the KDS survives "crashes"
    }
    return options;
  };

  std::map<std::string, std::string> model;  // acknowledged state
  std::set<std::string> dirty;               // durability-ambiguous keys
  std::set<std::string> universe;            // every key ever touched

  Random rnd(seed * 2654435761ull + 17);

  for (int cycle = 0; cycle < 3; cycle++) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));

    fenv.SetFaultsEnabled(false);
    Options options = make_options();
    DB* raw = nullptr;
    Status open_status = DB::Open(options, "/db", &raw);
    ASSERT_TRUE(open_status.ok()) << open_status.ToString();
    std::unique_ptr<DB> db(raw);

    // Re-sync ambiguous keys to whatever actually survived the crash.
    for (const std::string& key : dirty) {
      std::string got;
      Status s = db->Get(ReadOptions(), key, &got);
      if (s.ok()) {
        model[key] = got;
      } else if (s.IsNotFound()) {
        model.erase(key);
      } else {
        FAIL() << "corrupt read of dirty key " << key << ": "
               << s.ToString();
      }
    }
    dirty.clear();

    // Every durably acknowledged key must read back exactly.
    for (const std::string& key : universe) {
      std::string got;
      Status s = db->Get(ReadOptions(), key, &got);
      auto it = model.find(key);
      if (it != model.end()) {
        ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
        ASSERT_EQ(it->second, got) << key;
      } else {
        ASSERT_TRUE(s.IsNotFound()) << key << ": " << s.ToString();
      }
    }

    // Faulty workload phase. It ends early when the DB halts.
    fenv.SetFaultsEnabled(true);
    bool halted = false;
    for (int op = 0; op < 120; op++) {
      const std::string key = "key" + std::to_string(rnd.Uniform(64));
      universe.insert(key);
      const uint64_t dice = rnd.Uniform(100);
      if (dice < 8) {
        Status s = db->Delete(WriteOptions(), key);
        if (s.ok()) {
          model.erase(key);
        }
        dirty.insert(key);  // unsynced (or failed): ambiguous either way
      } else if (dice < 22) {
        WriteOptions synced;
        synced.sync = true;
        const std::string value = "v" + std::to_string(rnd.Next64());
        Status s = db->Put(synced, key, value);
        if (s.ok()) {
          model[key] = value;
          dirty.erase(key);  // this key's value is durable now
        } else {
          dirty.insert(key);
        }
      } else if (dice < 26) {
        if (db->Flush().ok()) {
          // A write that failed its durability step may still have been
          // applied to the memtable (the group is applied before the WAL
          // sync so non-sync followers can be released early); the flush
          // just made whatever landed durable. Dirty keys are ambiguous
          // until observed, so adopt the live state before clearing.
          // (Pure observation: pause injection so reads can't fault.)
          fenv.SetFaultsEnabled(false);
          for (const std::string& dkey : dirty) {
            std::string got;
            Status s = db->Get(ReadOptions(), dkey, &got);
            if (s.ok()) {
              model[dkey] = got;
            } else if (s.IsNotFound()) {
              model.erase(dkey);
            } else if (!s.IsCorruption() && IsHalted(db.get())) {
              // A background job the flush scheduled took a permanent
              // injected fault after Flush() returned, and the halted
              // DB refuses reads with that error. Nothing more can be
              // observed before recovery: keep the keys dirty and go
              // to the crash step.
              halted = true;
              break;
            } else {
              FAIL() << "corrupt read of dirty key " << dkey << ": "
                     << s.ToString();
            }
          }
          if (halted) {
            break;
          }
          fenv.SetFaultsEnabled(true);
          dirty.clear();  // everything acknowledged is now in SSTs
        }
      } else {
        const std::string value = "v" + std::to_string(rnd.Next64());
        Status s = db->Put(WriteOptions(), key, value);
        if (s.ok()) {
          model[key] = value;
        }
        dirty.insert(key);
      }
    }

    // Crash: stop injecting, drop the process, then lose unsynced data.
    fenv.SetFaultsEnabled(false);
    db.reset();
    ASSERT_TRUE(fenv.SimulateCrash().ok());
  }

  // The schedule must have actually exercised the fault paths.
  EXPECT_GT(fenv.crashes(), 0u);
}

TEST(FaultScheduleTest, EncFs) {
  const uint64_t base_seed = SeedBase();
  const int count = SeedCount();
  for (int i = 0; i < count; i++) {
    RunFaultSchedule(base_seed + static_cast<uint64_t>(i),
                     EncryptionMode::kEncFS, 0);
    if (HasFatalFailure()) {
      return;
    }
  }
}

TEST(FaultScheduleTest, ShieldWalBuffered) {
  const uint64_t base_seed = SeedBase() + 100;
  const int count = SeedCount();
  for (int i = 0; i < count; i++) {
    RunFaultSchedule(base_seed + static_cast<uint64_t>(i),
                     EncryptionMode::kShield, 512);
    if (HasFatalFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace shield
