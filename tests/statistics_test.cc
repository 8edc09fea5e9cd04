#include "util/statistics.h"

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "env/io_stats.h"
#include "lsm/db.h"
#include "util/histogram.h"
#include "util/perf_context.h"
#include "util/thread_pool.h"

namespace shield {
namespace {

// --- Ticker registry ----------------------------------------------------

TEST(StatisticsTest, TickerNamesAreUniqueAndDotted) {
  std::vector<std::string> seen;
  for (size_t i = 0; i < kNumTickers; i++) {
    const char* name = TickerName(static_cast<Tickers>(i));
    ASSERT_NE(nullptr, name);
    EXPECT_NE(std::string::npos, std::string(name).find('.')) << name;
    for (const std::string& other : seen) {
      EXPECT_NE(other, name);
    }
    seen.push_back(name);
  }
  for (size_t i = 0; i < kNumHistograms; i++) {
    ASSERT_NE(nullptr, HistogramName(static_cast<Histograms>(i)));
  }
}

TEST(StatisticsTest, IoTickerLayout) {
  EXPECT_EQ(Tickers::kIoWalReadBytes,
            IoTicker(FileKind::kWal, /*read=*/true, /*bytes=*/true));
  EXPECT_EQ(Tickers::kIoWalWriteOps,
            IoTicker(FileKind::kWal, /*read=*/false, /*bytes=*/false));
  EXPECT_EQ(Tickers::kIoSstWriteBytes,
            IoTicker(FileKind::kSst, /*read=*/false, /*bytes=*/true));
  EXPECT_EQ(Tickers::kIoManifestReadOps,
            IoTicker(FileKind::kManifest, /*read=*/true, /*bytes=*/false));
  EXPECT_EQ(Tickers::kIoOtherWriteBytes,
            IoTicker(FileKind::kOther, /*read=*/false, /*bytes=*/true));
}

TEST(StatisticsTest, RecordAndResetTickers) {
  Statistics stats;
  stats.RecordTick(Tickers::kKdsRequests, 3);
  stats.RecordTick(Tickers::kKdsRequests);
  EXPECT_EQ(4u, stats.GetTickerCount(Tickers::kKdsRequests));
  EXPECT_EQ(0u, stats.GetTickerCount(Tickers::kKdsFailures));

  stats.MeasureTime(Histograms::kKdsLatencyMicros, 100);
  EXPECT_EQ(1u, stats.GetHistogram(Histograms::kKdsLatencyMicros).count);

  const std::string dump = stats.ToString();
  EXPECT_NE(std::string::npos, dump.find("kds.requests"));

  stats.Reset();
  EXPECT_EQ(0u, stats.GetTickerCount(Tickers::kKdsRequests));
  EXPECT_EQ(0u, stats.GetHistogram(Histograms::kKdsLatencyMicros).count);
}

TEST(StatisticsTest, NullSafeHelpers) {
  RecordTick(nullptr, Tickers::kKdsRequests, 7);  // must not crash
  MeasureTime(nullptr, Histograms::kDbGetMicros, 5);
  { StopWatch watch(nullptr, Histograms::kDbGetMicros); }
  uint64_t elapsed = 123;
  { StopWatch watch(nullptr, Histograms::kDbGetMicros, &elapsed); }
  EXPECT_LT(elapsed, 123u);  // measured (≈0), not left at the sentinel
}

TEST(StatisticsTest, ConcurrentTickersLoseNoCounts) {
  Statistics stats;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  ThreadPool pool(kThreads);
  std::atomic<int> done{0};
  for (int t = 0; t < kThreads; t++) {
    pool.Schedule([&] {
      for (int i = 0; i < kPerThread; i++) {
        stats.RecordTick(Tickers::kCryptoBytesEncrypted, 2);
      }
      done.fetch_add(1);
    });
  }
  while (done.load() < kThreads) {
    std::this_thread::yield();
  }
  EXPECT_EQ(uint64_t{kThreads} * kPerThread * 2,
            stats.GetTickerCount(Tickers::kCryptoBytesEncrypted));
}

TEST(StatisticsTest, SharedAcrossDbsThatOpenAndClose) {
  // One Statistics outlives the DBs that use it: threads keep timing
  // and counting into it while DBs open, write, render `shield.metrics`
  // and close. Nothing a closing DB owns may be reachable from the
  // Statistics object (TSan/ASan catch a DB-owned instrument used after
  // close), and no sample may be lost.
  auto stats = CreateDBStatistics();
  std::unique_ptr<Env> env = NewMemEnv();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> timed{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; t++) {
    workers.emplace_back([&] {
      while (!stop.load()) {
        { StopWatch watch(stats.get(), Histograms::kDbGetMicros); }
        stats->RecordTick(Tickers::kKdsRequests, 1);
        timed.fetch_add(1);
      }
    });
  }
  for (int round = 0; round < 20; round++) {
    Options options;
    options.env = env.get();
    options.statistics = stats;
    options.node_name = "db-" + std::to_string(round % 3);
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(options, "/db" + std::to_string(round % 3), &raw).ok());
    std::unique_ptr<DB> db(raw);
    ASSERT_TRUE(db->Put(WriteOptions(), "k" + std::to_string(round), "v").ok());
    std::string text;
    ASSERT_TRUE(db->GetProperty("shield.metrics", &text));
    EXPECT_NE(std::string::npos, text.find("node=\"" + options.node_name));
  }
  stop.store(true);
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(timed.load(), stats->GetHistogram(Histograms::kDbGetMicros).count);
  EXPECT_LE(timed.load(), stats->GetTickerCount(Tickers::kKdsRequests));
}

// --- Histogram properties ------------------------------------------------

TEST(HistogramTest, PercentileMonotoneInP) {
  Histogram h;
  // A spread that spans several buckets, including repeats.
  for (uint64_t v : {1, 1, 2, 5, 10, 50, 100, 1000, 5000, 100000}) {
    h.Add(v);
  }
  double prev = 0.0;
  for (double p = 0.0; p <= 100.0; p += 0.5) {
    const double value = h.Percentile(p);
    EXPECT_GE(value, prev) << "p=" << p;
    prev = value;
  }
  EXPECT_LE(h.Percentile(100.0), static_cast<double>(h.Max()) + 1e-9);
}

TEST(HistogramTest, ValuesAboveTopBucketLimit) {
  Histogram h;
  const uint64_t huge = uint64_t{1} << 62;  // beyond every bucket limit
  h.Add(huge);
  h.Add(10);
  EXPECT_EQ(2u, h.Count());
  EXPECT_EQ(huge, h.Max());
  // Percentiles must stay finite and ordered even with an off-scale
  // value parked in the overflow bucket.
  const double p50 = h.Percentile(50.0);
  const double p99 = h.Percentile(99.0);
  EXPECT_GE(p99, p50);
  EXPECT_GT(p99, 0.0);
}

TEST(HistogramTest, ConcurrentAddLosesNoCounts) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  ThreadPool pool(kThreads);
  std::atomic<int> done{0};
  for (int t = 0; t < kThreads; t++) {
    pool.Schedule([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        h.Add(static_cast<uint64_t>(t * kPerThread + i) % 997 + 1);
      }
      done.fetch_add(1);
    });
  }
  while (done.load() < kThreads) {
    std::this_thread::yield();
  }
  EXPECT_EQ(uint64_t{kThreads} * kPerThread, h.Count());
  EXPECT_GE(h.Max(), 1u);
  EXPECT_GE(h.Average(), 1.0);
}

// --- PerfContext ---------------------------------------------------------

TEST(PerfContextTest, LevelsGateAccumulation) {
  const PerfLevel saved = GetPerfLevel();
  GetPerfContext()->Reset();

  SetPerfLevel(PerfLevel::kDisable);
  PerfAdd(&PerfContext::decrypt_bytes, 100);
  EXPECT_EQ(0u, GetPerfContext()->decrypt_bytes);

  SetPerfLevel(PerfLevel::kEnableCount);
  PerfAdd(&PerfContext::decrypt_bytes, 100);
  EXPECT_EQ(100u, GetPerfContext()->decrypt_bytes);
  {
    // Counts-only: wall-clock timers stay off.
    PerfTimer timer(&GetPerfContext()->decrypt_micros);
  }
  EXPECT_EQ(0u, GetPerfContext()->decrypt_micros);

  SetPerfLevel(PerfLevel::kEnableTime);
  {
    PerfTimer timer(&GetPerfContext()->hmac_micros);
    // Body intentionally trivial; even ~0us must be recorded as >= 0
    // without crashing. Touch the context to keep the block non-empty.
    PerfAdd(&PerfContext::hmac_compute_count, 1);
  }
  EXPECT_EQ(1u, GetPerfContext()->hmac_compute_count);

  const std::string dump = GetPerfContext()->ToString();
  EXPECT_NE(std::string::npos, dump.find("decrypt_bytes"));

  GetPerfContext()->Reset();
  EXPECT_EQ(0u, GetPerfContext()->decrypt_bytes);
  SetPerfLevel(saved);
}

TEST(PerfContextTest, ThreadLocalIsolation) {
  GetPerfContext()->Reset();
  PerfAdd(&PerfContext::kds_request_count, 5);
  uint64_t other_thread_count = 99;
  std::thread t([&] {
    GetPerfContext()->Reset();
    other_thread_count = GetPerfContext()->kds_request_count;
  });
  t.join();
  EXPECT_EQ(0u, other_thread_count);
  EXPECT_EQ(5u, GetPerfContext()->kds_request_count);
  GetPerfContext()->Reset();
}

// --- End-to-end: tickers vs PerfContext through a SHIELD DB --------------

class StatisticsDBTest : public ::testing::Test {
 protected:
  StatisticsDBTest() : env_(NewMemEnv()) {
    options_.env = env_.get();
    options_.statistics = CreateDBStatistics();
    options_.write_buffer_size = 64 * 1024;
    options_.block_cache_size = 0;  // every read hits the decrypt path
    options_.encryption.mode = EncryptionMode::kShield;
    options_.encryption.wal_buffer_size = 512;
  }

  ~StatisticsDBTest() override { db_.reset(); }

  void Open() {
    DB* db = nullptr;
    Status s = DB::Open(options_, "/db", &db);
    ASSERT_TRUE(s.ok()) << s.ToString();
    db_.reset(db);
  }

  static std::string Key(int i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%06d", i);
    return buf;
  }

  std::unique_ptr<Env> env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(StatisticsDBTest, WritePathPopulatesTickers) {
  Open();
  const std::string value(100, 'v');
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), value).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  db_->WaitForIdle();

  Statistics* stats = options_.statistics.get();
  // The bench acceptance set: all three must be nonzero after a fill.
  EXPECT_GT(stats->GetTickerCount(Tickers::kCryptoBytesEncrypted), 0u);
  EXPECT_GT(stats->GetTickerCount(Tickers::kKdsRequests), 0u);
  EXPECT_GT(stats->GetTickerCount(Tickers::kIoSstWriteBytes), 0u);
  // Plus the SHIELD plane details.
  EXPECT_GT(stats->GetTickerCount(Tickers::kShieldDekCreated), 0u);
  EXPECT_GT(stats->GetTickerCount(Tickers::kShieldWalBufferDrains), 0u);
  EXPECT_GT(stats->GetTickerCount(Tickers::kLsmFlushBytesWritten), 0u);
  EXPECT_GT(stats->GetTickerCount(Tickers::kIoWalWriteBytes), 0u);
  EXPECT_GT(stats->GetTickerCount(Tickers::kCryptoHmacComputed), 0u);
  EXPECT_GT(stats->GetHistogram(Histograms::kDbWriteMicros).count, 0u);
  EXPECT_GT(stats->GetHistogram(Histograms::kFlushMicros).count, 0u);

  // The property dump carries the same registry.
  std::string dump;
  ASSERT_TRUE(db_->GetProperty("shield.stats", &dump));
  EXPECT_NE(std::string::npos, dump.find("crypto.bytes.encrypted"));
  EXPECT_NE(std::string::npos, dump.find("kds.requests"));

  std::string io;
  ASSERT_TRUE(db_->GetProperty("shield.io-stats", &io));
  EXPECT_NE(std::string::npos, io.find("sst"));
}

// A read verifies block tags and computes none: a Get-only phase moves
// crypto.hmac.verified and PerfContext::hmac_verify_count, while the
// computed count (tags produced for writing) stays put.
TEST_F(StatisticsDBTest, ReadsVerifyTagsWithoutComputingAny) {
  Open();
  const std::string value(100, 'v');
  constexpr int kKeys = 400;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), value).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  db_->WaitForIdle();  // quiesce: no background writes during reads

  Statistics* stats = options_.statistics.get();
  const uint64_t computed_before =
      stats->GetTickerCount(Tickers::kCryptoHmacComputed);
  const uint64_t verified_before =
      stats->GetTickerCount(Tickers::kCryptoHmacVerified);
  const PerfLevel saved_level = GetPerfLevel();
  SetPerfLevel(PerfLevel::kEnableCount);
  GetPerfContext()->Reset();
  for (int i = 0; i < kKeys; i++) {
    std::string result;
    ASSERT_TRUE(db_->Get(ReadOptions(), Key(i), &result).ok());
    ASSERT_EQ(value, result);
  }
  const uint64_t perf_computed = GetPerfContext()->hmac_compute_count;
  const uint64_t perf_verified = GetPerfContext()->hmac_verify_count;
  SetPerfLevel(saved_level);
  GetPerfContext()->Reset();

  EXPECT_EQ(computed_before,
            stats->GetTickerCount(Tickers::kCryptoHmacComputed));
  EXPECT_GE(stats->GetTickerCount(Tickers::kCryptoHmacVerified),
            verified_before + kKeys);
  EXPECT_EQ(0u, perf_computed);
  EXPECT_GE(perf_verified, static_cast<uint64_t>(kKeys));
}

// Every crypto byte is accounted at one site into both the global
// ticker and the caller's thread-local PerfContext, so across any set
// of reader threads: sum(per-thread decrypt_bytes) == ticker delta.
TEST_F(StatisticsDBTest, DecryptBytesConsistentUnderConcurrentReaders) {
  Open();
  const std::string value(100, 'v');
  constexpr int kKeys = 400;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), value).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  db_->WaitForIdle();  // quiesce: no background decrypts during reads

  Statistics* stats = options_.statistics.get();
  const uint64_t decrypted_before =
      stats->GetTickerCount(Tickers::kCryptoBytesDecrypted);

  constexpr int kThreads = 4;
  std::atomic<uint64_t> perf_sum{0};
  std::atomic<uint64_t> read_errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      GetPerfContext()->Reset();
      ReadOptions ro;
      ro.fill_cache = false;
      for (int i = t; i < kKeys; i += kThreads) {
        std::string result;
        if (!db_->Get(ro, Key(i), &result).ok() || result != value) {
          read_errors.fetch_add(1);
        }
      }
      perf_sum.fetch_add(GetPerfContext()->decrypt_bytes);
    });
  }
  for (auto& t : threads) {
    t.join();
  }

  EXPECT_EQ(0u, read_errors.load());
  const uint64_t decrypted_after =
      stats->GetTickerCount(Tickers::kCryptoBytesDecrypted);
  EXPECT_GT(decrypted_after, decrypted_before);
  EXPECT_EQ(decrypted_after - decrypted_before, perf_sum.load());
}

}  // namespace
}  // namespace shield
