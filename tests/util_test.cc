#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "sim/sim_clock.h"
#include "util/arena.h"
#include "util/clock.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/histogram.h"
#include "util/perf_context.h"
#include "util/periodic_task.h"
#include "util/random.h"
#include "util/retry.h"
#include "util/slice.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace shield {
namespace {

// --- Slice -----------------------------------------------------------

TEST(SliceTest, Basics) {
  Slice empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(0u, empty.size());

  Slice s("hello");
  EXPECT_EQ(5u, s.size());
  EXPECT_EQ('h', s[0]);
  EXPECT_EQ("hello", s.ToString());

  std::string str = "world";
  Slice from_string(str);
  EXPECT_EQ("world", from_string.ToString());
}

TEST(SliceTest, Compare) {
  EXPECT_LT(Slice("a").compare(Slice("b")), 0);
  EXPECT_GT(Slice("b").compare(Slice("a")), 0);
  EXPECT_EQ(0, Slice("a").compare(Slice("a")));
  EXPECT_LT(Slice("a").compare(Slice("ab")), 0);
  EXPECT_TRUE(Slice("abc").starts_with(Slice("ab")));
  EXPECT_FALSE(Slice("abc").starts_with(Slice("b")));
  EXPECT_TRUE(Slice("x") == Slice("x"));
  EXPECT_TRUE(Slice("x") != Slice("y"));
}

TEST(SliceTest, RemovePrefix) {
  Slice s("abcdef");
  s.remove_prefix(2);
  EXPECT_EQ("cdef", s.ToString());
}

// --- Status ----------------------------------------------------------

TEST(StatusTest, Categories) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ("OK", Status::OK().ToString());

  Status nf = Status::NotFound("key", "missing");
  EXPECT_TRUE(nf.IsNotFound());
  EXPECT_FALSE(nf.ok());
  EXPECT_EQ("NotFound: key: missing", nf.ToString());

  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::PermissionDenied("x").IsPermissionDenied());
  EXPECT_TRUE(Status::Busy("x").IsBusy());
}

// --- Coding ----------------------------------------------------------

TEST(CodingTest, Fixed32) {
  std::string s;
  for (uint32_t v = 0; v < 100000; v += 7777) {
    PutFixed32(&s, v);
  }
  const char* p = s.data();
  for (uint32_t v = 0; v < 100000; v += 7777) {
    EXPECT_EQ(v, DecodeFixed32(p));
    p += 4;
  }
}

TEST(CodingTest, Fixed64) {
  std::string s;
  for (int power = 0; power <= 63; power++) {
    uint64_t v = 1ull << power;
    PutFixed64(&s, v - 1);
    PutFixed64(&s, v);
    PutFixed64(&s, v + 1);
  }
  const char* p = s.data();
  for (int power = 0; power <= 63; power++) {
    uint64_t v = 1ull << power;
    EXPECT_EQ(v - 1, DecodeFixed64(p));
    p += 8;
    EXPECT_EQ(v, DecodeFixed64(p));
    p += 8;
    EXPECT_EQ(v + 1, DecodeFixed64(p));
    p += 8;
  }
}

TEST(CodingTest, Varint32) {
  std::string s;
  for (uint32_t i = 0; i < (32 * 32); i++) {
    uint32_t v = (i / 32) << (i % 32);
    PutVarint32(&s, v);
  }
  const char* p = s.data();
  const char* limit = p + s.size();
  for (uint32_t i = 0; i < (32 * 32); i++) {
    uint32_t expected = (i / 32) << (i % 32);
    uint32_t actual;
    p = GetVarint32Ptr(p, limit, &actual);
    ASSERT_NE(nullptr, p);
    EXPECT_EQ(expected, actual);
  }
  EXPECT_EQ(p, limit);
}

TEST(CodingTest, Varint64) {
  std::vector<uint64_t> values = {0, 100, ~0ull, ~0ull - 1};
  for (uint32_t k = 0; k < 64; k++) {
    const uint64_t power = 1ull << k;
    values.push_back(power - 1);
    values.push_back(power);
    values.push_back(power + 1);
  }
  std::string s;
  for (uint64_t v : values) {
    PutVarint64(&s, v);
  }
  Slice input(s);
  for (uint64_t expected : values) {
    uint64_t actual;
    ASSERT_TRUE(GetVarint64(&input, &actual));
    EXPECT_EQ(expected, actual);
  }
  EXPECT_TRUE(input.empty());
}

TEST(CodingTest, Varint32Truncation) {
  uint32_t large_value = (1u << 31) + 100;
  std::string s;
  PutVarint32(&s, large_value);
  uint32_t result;
  for (size_t len = 0; len < s.size() - 1; len++) {
    EXPECT_EQ(nullptr, GetVarint32Ptr(s.data(), s.data() + len, &result));
  }
  EXPECT_NE(nullptr, GetVarint32Ptr(s.data(), s.data() + s.size(), &result));
  EXPECT_EQ(large_value, result);
}

TEST(CodingTest, LengthPrefixedSlice) {
  std::string s;
  PutLengthPrefixedSlice(&s, Slice(""));
  PutLengthPrefixedSlice(&s, Slice("foo"));
  PutLengthPrefixedSlice(&s, Slice(std::string(1000, 'x')));

  Slice input(s);
  Slice v;
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &v));
  EXPECT_EQ("", v.ToString());
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &v));
  EXPECT_EQ("foo", v.ToString());
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &v));
  EXPECT_EQ(std::string(1000, 'x'), v.ToString());
  EXPECT_FALSE(GetLengthPrefixedSlice(&input, &v));
}

TEST(CodingTest, VarintLength) {
  EXPECT_EQ(1, VarintLength(0));
  EXPECT_EQ(1, VarintLength(127));
  EXPECT_EQ(2, VarintLength(128));
  EXPECT_EQ(5, VarintLength(0xFFFFFFFFull));
  EXPECT_EQ(10, VarintLength(~0ull));
}

// --- CRC32C ----------------------------------------------------------

TEST(Crc32cTest, StandardVectors) {
  // From the CRC32C specification (RFC 3720 appendix / SSE4.2 docs).
  char buf[32];

  memset(buf, 0, sizeof(buf));
  EXPECT_EQ(0x8a9136aau, crc32c::Value(buf, sizeof(buf)));

  memset(buf, 0xff, sizeof(buf));
  EXPECT_EQ(0x62a8ab43u, crc32c::Value(buf, sizeof(buf)));

  for (int i = 0; i < 32; i++) {
    buf[i] = static_cast<char>(i);
  }
  EXPECT_EQ(0x46dd794eu, crc32c::Value(buf, sizeof(buf)));

  EXPECT_EQ(0xe3069283u, crc32c::Value("123456789", 9));
}

TEST(Crc32cTest, Extend) {
  EXPECT_EQ(crc32c::Value("hello world", 11),
            crc32c::Extend(crc32c::Value("hello ", 6), "world", 5));
}

// The CRC32C register after one more byte, bit by bit (reflected
// Castagnoli polynomial): the portable definition the table-driven and
// SSE4.2 implementations must both reproduce.
uint32_t Crc32cBitwiseStep(uint32_t reg, uint8_t byte) {
  reg ^= byte;
  for (int bit = 0; bit < 8; bit++) {
    reg = (reg >> 1) ^ ((reg & 1) ? 0x82F63B78u : 0);
  }
  return reg;
}

std::string Crc32cTestData(size_t n) {
  Random rnd(301);
  std::string data(n, '\0');
  for (char& c : data) {
    c = static_cast<char>(rnd.Uniform(256));
  }
  return data;
}

// Covers the unaligned head, the three-stream 768 B rounds and the
// single-chain tail, whichever implementation this CPU runs.
TEST(Crc32cTest, EveryLengthAndAlignmentMatchesBitwise) {
  SCOPED_TRACE(crc32c::Implementation());
  const std::string data = Crc32cTestData(4096 + 8);
  for (size_t align = 0; align < 8; align++) {
    const char* p = data.data() + align;
    uint32_t reg = 0xFFFFFFFFu;
    for (size_t n = 0; n <= 4096; n++) {
      ASSERT_EQ(reg ^ 0xFFFFFFFFu, crc32c::Value(p, n))
          << "length " << n << ", alignment " << align;
      if (n < 4096) {
        reg = Crc32cBitwiseStep(reg, static_cast<uint8_t>(p[n]));
      }
    }
  }
}

TEST(Crc32cTest, ExtendAcrossStripeBoundaries) {
  SCOPED_TRACE(crc32c::Implementation());
  const std::string data = Crc32cTestData(4101);
  std::vector<size_t> splits = {0, 1, 7, 8, 255, 256, 257, 1023, 1024,
                                1535, 1536, 2304, 3071, 3072, 3073, 3840};
  for (size_t k = 760; k <= 776; k++) {
    splits.push_back(k);
  }
  for (size_t n : {768, 769, 1536, 2304, 3072, 3840, 4096, 4101}) {
    const uint32_t whole = crc32c::Value(data.data(), n);
    for (size_t k : splits) {
      if (k > n) {
        continue;
      }
      EXPECT_EQ(whole, crc32c::Extend(crc32c::Value(data.data(), k),
                                      data.data() + k, n - k))
          << "length " << n << " split at " << k;
    }
  }
}

TEST(Crc32cTest, Mask) {
  const uint32_t crc = crc32c::Value("foo", 3);
  EXPECT_NE(crc, crc32c::Mask(crc));
  EXPECT_NE(crc, crc32c::Mask(crc32c::Mask(crc)));
  EXPECT_EQ(crc, crc32c::Unmask(crc32c::Mask(crc)));
  EXPECT_EQ(crc,
            crc32c::Unmask(crc32c::Unmask(crc32c::Mask(crc32c::Mask(crc)))));
}

// --- Random / distributions ------------------------------------------

TEST(RandomTest, Deterministic) {
  Random a(42), b(42);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.Next64(), b.Next64());
  }
}

TEST(RandomTest, UniformInRange) {
  Random rnd(301);
  for (int i = 0; i < 10000; i++) {
    EXPECT_LT(rnd.Uniform(17), 17u);
  }
}

TEST(RandomTest, NextDoubleRange) {
  Random rnd(7);
  for (int i = 0; i < 10000; i++) {
    const double d = rnd.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ZipfianTest, SkewAndRange) {
  const uint64_t n = 1000;
  ZipfianGenerator zipf(n, 0.99, 17);
  std::vector<uint64_t> counts(n, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; i++) {
    const uint64_t v = zipf.Next();
    ASSERT_LT(v, n);
    counts[v]++;
  }
  // Rank 0 must dominate, and the head must hold most of the mass.
  EXPECT_GT(counts[0], counts[100]);
  uint64_t head = 0;
  for (int i = 0; i < 100; i++) {
    head += counts[i];
  }
  EXPECT_GT(head, kDraws / 2u);
}

TEST(ZipfianTest, ScrambledStaysInRange) {
  ZipfianGenerator zipf(12345, 0.99, 3);
  for (int i = 0; i < 10000; i++) {
    EXPECT_LT(zipf.NextScrambled(), 12345u);
  }
}

TEST(ParetoTest, BoundsAndMean) {
  ParetoGenerator pareto(16.0, 1.6, 1024.0, 5);
  double sum = 0;
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; i++) {
    const double v = pareto.Next();
    ASSERT_GE(v, 16.0);
    ASSERT_LE(v, 1024.0);
    sum += v;
  }
  const double mean = sum / kDraws;
  // Pareto(16, 1.6) capped at 1 KiB has mean around 35-45.
  EXPECT_GT(mean, 25.0);
  EXPECT_LT(mean, 60.0);
}

// --- Histogram ---------------------------------------------------------

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; v++) {
    h.Add(v);
  }
  EXPECT_EQ(100u, h.Count());
  EXPECT_EQ(1u, h.Min());
  EXPECT_EQ(100u, h.Max());
  EXPECT_NEAR(50.5, h.Average(), 0.01);
  EXPECT_NEAR(50, h.Percentile(50), 10);
  EXPECT_NEAR(99, h.Percentile(99), 10);
}

TEST(HistogramTest, Merge) {
  Histogram a, b;
  a.Add(10);
  b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(2u, a.Count());
  EXPECT_EQ(10u, a.Min());
  EXPECT_EQ(1000u, a.Max());
}

TEST(HistogramTest, Empty) {
  Histogram h;
  EXPECT_EQ(0u, h.Count());
  EXPECT_EQ(0.0, h.Average());
  EXPECT_EQ(0.0, h.Percentile(99));
}

TEST(HistogramTest, ConcurrentAdds) {
  Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&h] {
      for (int i = 1; i <= 1000; i++) {
        h.Add(i);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(4000u, h.Count());
}

// --- Arena -------------------------------------------------------------

TEST(ArenaTest, Basic) {
  Arena arena;
  char* p = arena.Allocate(100);
  ASSERT_NE(nullptr, p);
  memset(p, 'x', 100);
  EXPECT_GT(arena.MemoryUsage(), 100u);
}

TEST(ArenaTest, ManyAllocationsAreDistinct) {
  Arena arena;
  Random rnd(301);
  std::vector<std::pair<char*, size_t>> allocated;
  for (int i = 0; i < 1000; i++) {
    const size_t size = 1 + rnd.Uniform(500);
    char* p = arena.Allocate(size);
    memset(p, i % 256, size);
    allocated.push_back({p, size});
  }
  // Verify contents were not clobbered by later allocations.
  for (int i = 0; i < 1000; i++) {
    auto [p, size] = allocated[i];
    for (size_t j = 0; j < size; j++) {
      EXPECT_EQ(static_cast<char>(i % 256), p[j]);
    }
  }
}

TEST(ArenaTest, AlignedAllocation) {
  Arena arena;
  for (int i = 0; i < 100; i++) {
    arena.Allocate(1);  // knock alignment off
    char* p = arena.AllocateAligned(8);
    EXPECT_EQ(0u, reinterpret_cast<uintptr_t>(p) %
                      alignof(std::max_align_t));
  }
}

TEST(ArenaTest, LargeAllocation) {
  Arena arena;
  char* p = arena.Allocate(1 << 20);
  ASSERT_NE(nullptr, p);
  memset(p, 0, 1 << 20);
  EXPECT_GE(arena.MemoryUsage(), 1u << 20);
}

// --- ThreadPool ----------------------------------------------------------

TEST(ThreadPoolTest, RunsJobs) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; i++) {
      pool.Schedule([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(100, counter.load());
}

TEST(ThreadPoolTest, ScheduleFromWorker) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    pool.Schedule([&] {
      counter.fetch_add(1);
      pool.Schedule([&] { counter.fetch_add(1); });
    });
  }
  // The destructor runs the job the first one queued.
  EXPECT_EQ(2, counter.load());
}

TEST(ThreadPoolTest, PerfContextZeroedOnReusedWorker) {
  // Pooled threads outlive the ops they serve: a chunk-decrypt or
  // shard-apply job that charges decrypt_micros must not leak it into
  // the next job scheduled onto the same worker. A 1-thread pool
  // guarantees reuse, and runs the jobs in order.
  uint64_t leaked_micros = 99;
  uint64_t leaked_kds = 99;
  {
    ThreadPool pool(1);
    pool.Schedule([] {
      GetPerfContext()->decrypt_micros += 1234;
      GetPerfContext()->kds_request_count += 7;
    });
    pool.Schedule([&] {
      leaked_micros = GetPerfContext()->decrypt_micros;
      leaked_kds = GetPerfContext()->kds_request_count;
    });
  }
  EXPECT_EQ(0u, leaked_micros);
  EXPECT_EQ(0u, leaked_kds);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; i++) {
      pool.Schedule([&counter] { counter.fetch_add(1); });
    }
  }
  // All 50 jobs must have run before destruction completed.
  EXPECT_EQ(50, counter.load());
}

// --- PeriodicTask ----------------------------------------------------

constexpr uint64_t kHour = 3600ull * 1000 * 1000;

// Waits up to 10 s of real time for `pred`.
template <typename Pred>
bool Eventually(Pred pred) {
  for (int i = 0; i < 10000; i++) {
    if (pred()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

TEST(PeriodicTaskTest, RunsOncePerDeadlineOnVirtualClock) {
  sim::SimClock clock;
  ScopedClockOverride override(&clock);
  std::atomic<int> runs{0};
  PeriodicTask task;
  task.Start(kHour, [&] { runs.fetch_add(1); });

  // Woken before the deadline, it re-reads the clock and keeps waiting.
  clock.AdvanceBy(kHour - 1);
  task.Wake();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(0, runs.load());

  clock.AdvanceBy(1);
  task.Wake();
  ASSERT_TRUE(Eventually([&] { return runs.load() == 1; }));
  // The next deadline is an interval after the run: no second run.
  task.Wake();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(1, runs.load());
  task.Stop();
}

TEST(PeriodicTaskTest, StopEndsIdleWaitAndPace) {
  sim::SimClock clock;
  ScopedClockOverride override(&clock);

  // Idle: the first deadline is an hour of virtual time away.
  PeriodicTask idle;
  std::atomic<int> runs{0};
  idle.Start(kHour, [&] { runs.fetch_add(1); });
  idle.Stop();
  EXPECT_EQ(0, runs.load());
  EXPECT_TRUE(idle.stopping());

  // Pacing inside a run: Pace waits on the clock until the task stops.
  PeriodicTask pacer;
  std::atomic<bool> pacing{false};
  std::atomic<int> pace_result{-1};
  pacer.Start(kHour, [&] {
    pacing.store(true);
    pace_result.store(pacer.Pace(kHour) ? 1 : 0);
  }, /*run_now=*/true);
  ASSERT_TRUE(Eventually([&] { return pacing.load(); }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(-1, pace_result.load()) << "Pace returned before its deadline";
  pacer.Stop();
  EXPECT_EQ(0, pace_result.load());
  // Once stopped, Pace returns at once.
  EXPECT_FALSE(pacer.Pace(kHour));
}

TEST(PeriodicTaskTest, StopIsIdempotentAndFinal) {
  std::atomic<int> runs{0};
  PeriodicTask task;
  task.Start(kHour, [&] { runs.fetch_add(1); }, /*run_now=*/true);
  ASSERT_TRUE(Eventually([&] { return runs.load() == 1; }));
  task.Stop();
  task.Stop();
  // A stopped task stays stopped.
  task.Start(1, [&] { runs.fetch_add(1); }, /*run_now=*/true);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(1, runs.load());
}

TEST(PeriodicTaskTest, ZeroIntervalStartsNoThread) {
  std::atomic<int> runs{0};
  PeriodicTask never;
  never.Start(0, [&] { runs.fetch_add(1); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(0, runs.load());
  never.Stop();

  // With run_now, an interval of 0 runs exactly once.
  PeriodicTask once;
  once.Start(0, [&] { runs.fetch_add(1); }, /*run_now=*/true);
  ASSERT_TRUE(Eventually([&] { return runs.load() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  once.Stop();
  EXPECT_EQ(1, runs.load());
}

// --- RetryPolicy / RunWithRetry -------------------------------------

TEST(RetryTest, JitterComesFromInjectedRandom) {
  RetryPolicy policy;
  policy.initial_backoff_micros = 1000;
  policy.max_backoff_micros = 100000;
  policy.jitter = 0.5;

  // Same seed, same attempt sequence → identical backoffs; different
  // seed → (with overwhelming probability over 32 draws) different.
  std::vector<uint64_t> a, b, c;
  Random rnd_a(42), rnd_b(42), rnd_c(43);
  for (int attempt = 2; attempt < 34; attempt++) {
    a.push_back(policy.BackoffMicros(attempt, &rnd_a));
    b.push_back(policy.BackoffMicros(attempt, &rnd_b));
    c.push_back(policy.BackoffMicros(attempt, &rnd_c));
  }
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(RetryTest, SharedRandomAdvancesAcrossCalls) {
  // One Random threaded through successive RunWithRetry calls keeps
  // advancing (the simulator shares a single jitter source per actor).
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_micros = 1;  // negligible real sleep
  policy.jitter = 1.0;

  Random shared(7);
  RetryContext ctx;
  ctx.rnd = &shared;
  const uint64_t before = shared.Next64();
  Random reference(7);
  reference.Next64();

  int attempts = 0;
  Status s = RunWithRetry(
      policy, [&] { return Status::TryAgain("transient"); }, &attempts, ctx);
  EXPECT_TRUE(s.IsTryAgain());
  EXPECT_EQ(3, attempts);
  // Two retries → two jitter draws consumed from the shared source.
  EXPECT_NE(shared.Next64(), reference.Next64());
  (void)before;
}

TEST(RetryTest, DeadlineHonoredAgainstVirtualClock) {
  sim::SimClock clock;
  ScopedClockOverride override(&clock);

  RetryPolicy policy;
  policy.max_attempts = 1000000;  // deadline, not attempts, must stop it
  policy.initial_backoff_micros = 10 * 1000;
  policy.max_backoff_micros = 50 * 1000;
  policy.deadline_micros = 300 * 1000;

  int attempts = 0;
  const uint64_t start = clock.NowMicros();
  Status s = RunWithRetry(
      policy, [] { return Status::TryAgain("always"); }, &attempts);
  EXPECT_TRUE(s.IsTryAgain());
  EXPECT_GT(attempts, 1);
  EXPECT_LT(attempts, 1000);
  // Backoff sleeps advanced the virtual clock, and the final sleep was
  // capped to the remaining budget: total elapsed stays at the
  // deadline (plus at most one op's worth of slack — the op itself
  // consumes no virtual time here).
  const uint64_t elapsed = clock.NowMicros() - start;
  EXPECT_GE(elapsed, policy.deadline_micros);
  EXPECT_LE(elapsed, policy.deadline_micros + policy.max_backoff_micros);
}

TEST(RetryTest, VirtualClockSleepsCostNoWallTime) {
  sim::SimClock clock;
  ScopedClockOverride override(&clock);

  RetryPolicy policy;
  policy.max_attempts = 200;
  policy.initial_backoff_micros = 1000 * 1000;  // 1 virtual second each
  policy.max_backoff_micros = 1000 * 1000;
  policy.deadline_micros = 0;
  policy.jitter = 0.0;

  const auto wall_start = std::chrono::steady_clock::now();
  int attempts = 0;
  Status s = RunWithRetry(
      policy, [] { return Status::TryAgain("always"); }, &attempts);
  const auto wall = std::chrono::steady_clock::now() - wall_start;
  EXPECT_TRUE(s.IsTryAgain());
  EXPECT_EQ(200, attempts);
  // ~199 virtual seconds of backoff...
  EXPECT_GE(clock.ElapsedMicros(), 190ull * 1000 * 1000);
  // ...in well under a real second.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(wall).count(),
            1000);
}

}  // namespace
}  // namespace shield
