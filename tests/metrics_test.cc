// Metrics text encoders: strict Prometheus text-format conformance
// (a promtool-style grammar check over every emitted line, including
// the DB's `shield.metrics` property), windowed-histogram snapshot
// properties under slot rotation on a controlled clock, and concurrent
// record/snapshot traffic for TSan.

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "env/env.h"
#include "gtest/gtest.h"
#include "lsm/db.h"
#include "sim/sim_clock.h"
#include "util/clock.h"
#include "util/health.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/statistics.h"

namespace shield {
namespace {

// --- strict Prometheus text validator --------------------------------
//
// Implements the text exposition format 0.0.4 line grammar the way
// promtool checks it: metric/label name charsets, quoted label values
// with only \\ \" \n escapes, float-parseable sample values, TYPE
// lines that precede their family's samples exactly once, counter
// families suffixed _total, and no duplicate (name + label set)
// samples. Any violation fails the test with the offending line.

bool IsNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}
bool IsNameChar(char c) {
  return IsNameStart(c) || std::isdigit(static_cast<unsigned char>(c));
}

bool ValidMetricName(const std::string& s) {
  if (s.empty() || !IsNameStart(s[0])) {
    return false;
  }
  for (char c : s) {
    if (!IsNameChar(c)) {
      return false;
    }
  }
  return true;
}

bool ValidLabelName(const std::string& s) {
  if (s.empty() || s[0] == ':' || !IsNameStart(s[0])) {
    return false;
  }
  for (char c : s) {
    if (c == ':' || !IsNameChar(c)) {
      return false;
    }
  }
  return true;
}

// Parses `name{l="v",...} value` or `name value`. Returns false with a
// reason on any grammar violation.
bool ParseSampleLine(const std::string& line, std::string* name,
                     std::string* labels, std::string* reason) {
  size_t i = 0;
  while (i < line.size() && IsNameChar(line[i])) {
    i++;
  }
  name->assign(line, 0, i);
  if (!ValidMetricName(*name)) {
    *reason = "bad metric name";
    return false;
  }
  labels->clear();
  if (i < line.size() && line[i] == '{') {
    const size_t open = i;
    std::set<std::string> seen;
    i++;
    while (true) {
      size_t ls = i;
      while (i < line.size() && IsNameChar(line[i])) {
        i++;
      }
      const std::string lname = line.substr(ls, i - ls);
      if (!ValidLabelName(lname)) {
        *reason = "bad label name '" + lname + "'";
        return false;
      }
      if (!seen.insert(lname).second) {
        *reason = "duplicate label '" + lname + "'";
        return false;
      }
      if (i >= line.size() || line[i] != '=') {
        *reason = "expected '=' after label name";
        return false;
      }
      i++;
      if (i >= line.size() || line[i] != '"') {
        *reason = "label value not quoted";
        return false;
      }
      i++;
      while (i < line.size() && line[i] != '"') {
        if (line[i] == '\\') {
          if (i + 1 >= line.size() ||
              (line[i + 1] != '\\' && line[i + 1] != '"' &&
               line[i + 1] != 'n')) {
            *reason = "invalid escape in label value";
            return false;
          }
          i++;
        } else if (line[i] == '\n') {
          *reason = "raw newline in label value";
          return false;
        }
        i++;
      }
      if (i >= line.size()) {
        *reason = "unterminated label value";
        return false;
      }
      i++;  // closing quote
      if (i < line.size() && line[i] == ',') {
        i++;
        continue;
      }
      if (i < line.size() && line[i] == '}') {
        i++;
        break;
      }
      *reason = "expected ',' or '}' after label value";
      return false;
    }
    labels->assign(line, open, i - open);
  }
  if (i >= line.size() || line[i] != ' ') {
    *reason = "expected single space before value";
    return false;
  }
  i++;
  const std::string value = line.substr(i);
  if (value.empty() || value.find(' ') != std::string::npos) {
    *reason = "expected exactly one value token";
    return false;
  }
  if (value != "NaN" && value != "+Inf" && value != "-Inf") {
    char* end = nullptr;
    (void)std::strtod(value.c_str(), &end);
    if (end != value.c_str() + value.size()) {
      *reason = "unparseable sample value '" + value + "'";
      return false;
    }
  }
  return true;
}

void ValidatePrometheusText(const std::string& text) {
  ASSERT_FALSE(text.empty());
  ASSERT_EQ('\n', text.back()) << "exposition must end with a newline";

  // exposed family name -> type; summaries admit _sum/_count children.
  std::set<std::string> typed;
  std::string current_family;
  std::string current_type;
  std::set<std::string> seen_samples;

  size_t pos = 0;
  int line_no = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    ASSERT_NE(std::string::npos, eol);
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    line_no++;
    SCOPED_TRACE("line " + std::to_string(line_no) + ": " + line);
    ASSERT_FALSE(line.empty()) << "blank line";

    if (line[0] == '#') {
      std::string keyword, fname;
      size_t i = 2;
      ASSERT_EQ("# ", line.substr(0, 2));
      size_t sp = line.find(' ', i);
      ASSERT_NE(std::string::npos, sp);
      keyword = line.substr(i, sp - i);
      ASSERT_TRUE(keyword == "HELP" || keyword == "TYPE") << keyword;
      i = sp + 1;
      sp = line.find(' ', i);
      ASSERT_NE(std::string::npos, sp) << "missing text after family name";
      fname = line.substr(i, sp - i);
      ASSERT_TRUE(ValidMetricName(fname)) << fname;
      const std::string rest = line.substr(sp + 1);
      if (keyword == "TYPE") {
        ASSERT_TRUE(rest == "counter" || rest == "gauge" ||
                    rest == "summary" || rest == "histogram" ||
                    rest == "untyped")
            << rest;
        ASSERT_TRUE(typed.insert(fname).second)
            << "family typed twice: " << fname;
        if (rest == "counter") {
          ASSERT_TRUE(fname.size() > 6 &&
                      fname.compare(fname.size() - 6, 6, "_total") == 0)
              << "counter family without _total suffix: " << fname;
        }
        current_family = fname;
        current_type = rest;
      } else {
        // HELP must not contain raw newlines (escaped as \n) or a
        // trailing bare backslash.
        for (size_t k = 0; k < rest.size(); k++) {
          if (rest[k] == '\\') {
            ASSERT_LT(k + 1, rest.size()) << "dangling backslash in HELP";
            ASSERT_TRUE(rest[k + 1] == '\\' || rest[k + 1] == 'n')
                << "invalid HELP escape";
            k++;
          }
        }
      }
      continue;
    }

    std::string name, labels, reason;
    ASSERT_TRUE(ParseSampleLine(line, &name, &labels, &reason)) << reason;
    // Samples must sit under their family's TYPE line: the family name
    // itself, or a summary's _sum/_count children.
    const bool in_family =
        name == current_family ||
        (current_type == "summary" && (name == current_family + "_sum" ||
                                       name == current_family + "_count"));
    ASSERT_TRUE(in_family) << "sample " << name
                           << " outside its family's TYPE block ("
                           << current_family << ")";
    ASSERT_TRUE(seen_samples.insert(name + labels).second)
        << "duplicate sample: " << name << labels;
  }
}

// --- Prometheus conformance ------------------------------------------

TEST(PrometheusFormatTest, EncoderOutputSurvivesStrictValidation) {
  // Escaping torture: quotes, backslashes and newlines in label values
  // and help text must all round-trip through the encoder as legal
  // exposition-format escapes.
  std::string text;
  AppendCounterFamily(
      "shield_test_requests", "requests with \\ and\nnewline",
      {{MetricLabels{{"node", "w"}}.Encode(), 7},
       {MetricLabels{{"op", "get\nput"}, {"node", "he said \"hi\"\\"}}
            .Encode(),
        42}},
      &text);
  AppendGaugeFamily("shield_test_depth", "queue depth",
                    {{MetricLabels{}.Encode(), 2.5}}, &text);
  WindowedHistogram h;
  for (int i = 1; i <= 100; i++) {
    h.Record(static_cast<uint64_t>(i) * 10);
  }
  AppendSummaryFamily("shield_test_latency_micros", "op latency",
                      {{MetricLabels{{"op", "get"}}.Encode(), &h}}, &text);
  ValidatePrometheusText(text);

  // Counters expose _total; escapes are on the wire; samples come out
  // in encoded-label order.
  EXPECT_NE(std::string::npos,
            text.find("# HELP shield_test_requests_total requests with "
                      "\\\\ and\\nnewline\n"));
  EXPECT_NE(std::string::npos,
            text.find("shield_test_requests_total{node=\"he said "
                      "\\\"hi\\\"\\\\\",op=\"get\\nput\"} 42\n"
                      "shield_test_requests_total{node=\"w\"} 7\n"));
  EXPECT_NE(std::string::npos,
            text.find("# TYPE shield_test_depth gauge\n"
                      "shield_test_depth 2.5\n"));
  // Summaries carry cumulative quantiles and sliding-window gauges.
  EXPECT_NE(std::string::npos,
            text.find("shield_test_latency_micros{op=\"get\",quantile=\"0.99\"}"));
  EXPECT_NE(std::string::npos, text.find("shield_test_latency_micros_window"));

  // A family without samples appends nothing.
  std::string empty;
  AppendGaugeFamily("shield_test_none", "no samples", {}, &empty);
  EXPECT_EQ("", empty);
}

TEST(PrometheusFormatTest, TickerFamiliesComeOutInNameOrder) {
  // Scrapes have always listed the ticker families sorted by name
  // (without the `_total` suffix), not in Tickers enum order; diffs of
  // two scrapes rely on that order.
  Statistics stats;
  const std::string text = stats.ToPrometheusText("n");
  ValidatePrometheusText(text);
  std::vector<std::string> counters;
  const std::string suffix = "_total counter\n";
  size_t pos = 0;
  while ((pos = text.find("# TYPE ", pos)) != std::string::npos) {
    const size_t end = text.find('\n', pos) + 1;
    const std::string line = text.substr(pos + 7, end - pos - 7);
    if (line.size() > suffix.size() &&
        line.compare(line.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      counters.push_back(line.substr(0, line.size() - suffix.size()));
    }
    pos = end;
  }
  ASSERT_EQ(static_cast<size_t>(kNumTickers), counters.size());
  EXPECT_TRUE(std::is_sorted(counters.begin(), counters.end()));
}

std::unique_ptr<DB> OpenFilledDb(Env* env, const std::string& name,
                                 const std::string& node,
                                 std::shared_ptr<Statistics> stats) {
  Options options;
  options.env = env;
  options.node_name = node;
  options.statistics = std::move(stats);
  DB* raw = nullptr;
  EXPECT_TRUE(DB::Open(options, name, &raw).ok());
  std::unique_ptr<DB> db(raw);
  if (db == nullptr) {
    return db;
  }
  for (int i = 0; i < 200; i++) {
    EXPECT_TRUE(
        db->Put(WriteOptions(), "key-" + std::to_string(i), "value").ok());
  }
  EXPECT_TRUE(db->Flush().ok());
  std::string value;
  for (int i = 0; i < 200; i++) {
    EXPECT_TRUE(db->Get(ReadOptions(), "key-" + std::to_string(i), &value).ok());
  }
  return db;
}

std::string MetricsOf(DB* db) {
  std::string text;
  EXPECT_TRUE(db->GetProperty("shield.metrics", &text));
  return text;
}

TEST(PrometheusFormatTest, DbMetricsPropertyValidates) {
  // The whole `shield.metrics` surface — tickers, latency summaries,
  // level/health/lag gauges — must pass the same strict grammar check
  // end to end.
  std::unique_ptr<Env> env = NewMemEnv();
  auto stats = CreateDBStatistics();
  std::unique_ptr<DB> writer = OpenFilledDb(env.get(), "/metricsdb", "writer", stats);
  ASSERT_NE(nullptr, writer);

  std::string text = MetricsOf(writer.get());
  ValidatePrometheusText(text);
  EXPECT_NE(std::string::npos, text.find("_total{"));
  EXPECT_NE(std::string::npos, text.find("node=\"writer\""));
  EXPECT_NE(std::string::npos, text.find("shield_health_level{"));

  // A second DB sharing the Statistics object: each DB's text is valid
  // on its own and carries only its own node's samples.
  std::unique_ptr<DB> second =
      OpenFilledDb(env.get(), "/metricsdb2", "second", stats);
  ASSERT_NE(nullptr, second);
  text = MetricsOf(writer.get());
  ValidatePrometheusText(text);
  EXPECT_EQ(std::string::npos, text.find("node=\"second\""));
  text = MetricsOf(second.get());
  ValidatePrometheusText(text);
  EXPECT_EQ(std::string::npos, text.find("node=\"writer\""));

  // The second DB's latency summaries and windows do not depend on the
  // first DB staying open.
  writer.reset();
  text = MetricsOf(second.get());
  ValidatePrometheusText(text);
  EXPECT_NE(std::string::npos,
            text.find("shield_op_latency_micros{node=\"second\",op=\"db.get\","
                      "quantile=\"0.99\"}"));
  EXPECT_NE(std::string::npos,
            text.find("shield_op_latency_micros_window{node=\"second\","
                      "op=\"db.get\",window=\"10s\""));
  EXPECT_NE(std::string::npos, text.find("shield_level_files{level=\"0\",node=\"second\"}"));
}

// --- windowed histogram properties -----------------------------------

TEST(WindowedHistogramTest, FullSnapshotMatchesReferenceUnderRotation) {
  // Property: however samples land across slot rotations (including
  // folds into the ancient accumulator), the full-history snapshot is
  // exactly the merge of everything recorded — identical counts, sum,
  // extrema, and bucket percentiles to a plain reference histogram.
  sim::SimClock clock;
  ScopedClockOverride override(&clock);

  Random rnd(301);
  WindowedHistogram wh;
  Histogram ref;
  for (int i = 0; i < 5000; i++) {
    const uint64_t v = rnd.Uniform(1000000);
    wh.Record(v);
    ref.Add(v);
    if (rnd.OneIn(20)) {
      // Jump up to ~3 slots; over the run this rotates the ring many
      // times past the 60 s horizon.
      clock.AdvanceBy(rnd.Uniform(3 * WindowedHistogram::kSlotMicros));
    }
  }

  const HistogramSnapshot full = wh.Snapshot(0);
  EXPECT_EQ(ref.Count(), full.count);
  EXPECT_EQ(ref.Min(), full.min);
  EXPECT_EQ(ref.Max(), full.max);
  EXPECT_DOUBLE_EQ(ref.Percentile(50.0), full.p50);
  EXPECT_DOUBLE_EQ(ref.Percentile(99.0), full.p99);
  EXPECT_DOUBLE_EQ(ref.Percentile(99.9), full.p999);

  Histogram merged;
  wh.MergeWindow(0, &merged);
  EXPECT_EQ(ref.Count(), merged.Count());
  EXPECT_DOUBLE_EQ(ref.Percentile(99.0), merged.Percentile(99.0));
}

TEST(WindowedHistogramTest, SlidingWindowsCoverOnlyRecentTraffic) {
  sim::SimClock clock;
  ScopedClockOverride override(&clock);

  WindowedHistogram wh;
  // Era 1: a thousand fast samples, then let the whole ring age past
  // the 60 s horizon.
  for (int i = 0; i < 1000; i++) {
    wh.Record(100);
  }
  clock.AdvanceBy(2 * WindowedHistogram::kWindowLongMicros);
  // Era 2: a burst of slow samples in the current slot.
  for (int i = 0; i < 50; i++) {
    wh.Record(1000000);
  }

  const HistogramSnapshot recent =
      wh.Snapshot(WindowedHistogram::kWindowShortMicros);
  EXPECT_EQ(50u, recent.count);
  EXPECT_GT(recent.p50, 100000.0) << "short window leaked era-1 samples";

  const HistogramSnapshot full = wh.Snapshot(0);
  EXPECT_EQ(1050u, full.count) << "windowing lost history";
  EXPECT_LT(full.p50, 10000.0) << "full history dominated by era 1";
}

TEST(WindowedHistogramTest, ClockStartingAtZeroLosesNothing) {
  // Epoch 0 is a legal slot epoch (a clock that starts near zero), not
  // an "unused" sentinel: samples recorded then must show up in
  // sliding windows, and must fold into the ancient accumulator — not
  // vanish — when their slot is reused a full ring later.
  sim::SimClock clock(0);
  ScopedClockOverride override(&clock);

  WindowedHistogram wh;
  for (int i = 0; i < 100; i++) {
    wh.Record(42);
  }
  EXPECT_EQ(100u, wh.Snapshot(WindowedHistogram::kWindowShortMicros).count)
      << "epoch-0 samples invisible to the sliding window";

  // Reuse slot 0 (same ring index, kNumSlots epochs later): the old
  // contents must survive as full history.
  clock.AdvanceBy(WindowedHistogram::kNumSlots * WindowedHistogram::kSlotMicros);
  wh.Record(7);
  const HistogramSnapshot full = wh.Snapshot(0);
  EXPECT_EQ(101u, full.count) << "slot reuse dropped epoch-0 samples";
  EXPECT_EQ(1u, wh.Snapshot(WindowedHistogram::kWindowShortMicros).count);
}

// --- health monitor locking ------------------------------------------

TEST(HealthMonitorTest, StatusReadsDoNotBlockOnSlowDetectors) {
  // Regression for an ABBA deadlock: a detector taking its owner's
  // lock (the DB mutex) while a thread holding that same lock reads
  // monitor state. Detectors
  // must run with the monitor's state lock released, so status reads
  // complete even while a detector is blocked on the owner lock.
  HealthMonitor monitor;
  std::mutex owner_mu;
  std::atomic<bool> in_detector{false};
  monitor.RegisterDetector("owner.locked", [&] {
    in_detector.store(true);
    std::lock_guard<std::mutex> lock(owner_mu);  // blocks until released
    HealthSample s;
    s.level = HealthLevel::kWarn;
    s.detail = "took owner lock";
    return s;
  });

  std::unique_lock<std::mutex> owner_lock(owner_mu);
  std::thread evaluator([&] { monitor.Evaluate(); });
  while (!in_detector.load()) {
    std::this_thread::yield();
  }
  // The evaluator is now inside the detector, blocked on owner_mu.
  // Every status read — including the gauge families of a metrics
  // scrape — must return instead of deadlocking.
  EXPECT_EQ(HealthLevel::kOk, monitor.Overall());
  EXPECT_FALSE(monitor.CurrentStatus().empty());
  EXPECT_NE(std::string::npos, monitor.ToJson().find("owner.locked"));
  std::string gauges;
  monitor.AppendGauges(MetricLabels{}, &gauges);
  EXPECT_NE(std::string::npos, gauges.find("shield_health_overall"));

  owner_lock.unlock();
  evaluator.join();
  EXPECT_EQ(HealthLevel::kWarn, monitor.Overall());
  // The detector's verdict committed after the unlock.
  std::vector<HealthTransition> transitions = monitor.Evaluate();
  EXPECT_TRUE(transitions.empty()) << "level should be stable at warn";
}

TEST(HealthMonitorTest, TableCacheDetectorWarnsOnMissShare) {
  // The detector reads the table-cache tickers of the DB's Statistics,
  // which other DBs may share, and judges only the lookups since its
  // last evaluation.
  std::unique_ptr<Env> env = NewMemEnv();
  auto stats = CreateDBStatistics();
  Options options;
  options.env = env.get();
  options.statistics = stats;
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/tcdb", &raw).ok());
  std::unique_ptr<DB> db(raw);
  auto level = [&db] {
    std::vector<HealthTransition> transitions;
    EXPECT_TRUE(db->EvaluateHealth(&transitions).ok());
    std::string json;
    EXPECT_TRUE(db->GetProperty("shield.health", &json));
    const size_t at = json.find("\"lsm.table_cache\"");
    EXPECT_NE(std::string::npos, at);
    return json.substr(at, json.find('}', at) - at);
  };
  level();

  // 20% misses over 1000 lookups: warn.
  stats->RecordTick(Tickers::kLsmTableCacheHit, 800);
  stats->RecordTick(Tickers::kLsmTableCacheMiss, 200);
  EXPECT_NE(std::string::npos, level().find("\"warn\""));

  // 10% exactly is not over the threshold.
  stats->RecordTick(Tickers::kLsmTableCacheHit, 900);
  stats->RecordTick(Tickers::kLsmTableCacheMiss, 100);
  EXPECT_NE(std::string::npos, level().find("\"ok\""));

  // Too few lookups to judge, however many miss.
  stats->RecordTick(Tickers::kLsmTableCacheMiss, 999);
  EXPECT_NE(std::string::npos, level().find("\"ok\""));
}

// --- concurrency (TSan) ----------------------------------------------

TEST(MetricsConcurrencyTest, ConcurrentRecordAndSnapshot) {
  WindowedHistogram wh;
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load()) {
      (void)wh.Snapshot(0);
      (void)wh.Snapshot(WindowedHistogram::kWindowShortMicros);
    }
  });
  std::vector<std::thread> recorders;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  for (int t = 0; t < kThreads; t++) {
    recorders.emplace_back([&wh, t] {
      for (int i = 0; i < kPerThread; i++) {
        wh.Record(static_cast<uint64_t>(t) * 1000 + (i % 997));
      }
    });
  }
  for (auto& t : recorders) {
    t.join();
  }
  stop.store(true);
  snapshotter.join();
  EXPECT_EQ(static_cast<uint64_t>(kThreads) * kPerThread, wh.Snapshot(0).count);
}

TEST(MetricsConcurrencyTest, ScrapeWhileWritingAndFlushing) {
  // `shield.metrics` and `shield.stats` read the level table under the
  // DB mutex and render everything else after releasing it, while
  // writes, flushes and compactions go on.
  std::unique_ptr<Env> env = NewMemEnv();
  Options options;
  options.env = env.get();
  options.node_name = "w";
  options.statistics = CreateDBStatistics();
  options.write_buffer_size = 16 * 1024;
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/scrapedb", &raw).ok());
  std::unique_ptr<DB> db(raw);
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    for (int n = 0; n < 50 || !stop.load(); n++) {
      std::string text;
      ASSERT_TRUE(db->GetProperty("shield.metrics", &text));
      ValidatePrometheusText(text);
      ASSERT_TRUE(db->GetProperty("shield.stats", &text));
      ASSERT_NE(std::string::npos, text.find("io: "));
    }
  });
  std::string value;
  for (int i = 0; i < 2000; i++) {
    const std::string key = "key-" + std::to_string(i % 500);
    ASSERT_TRUE(db->Put(WriteOptions(), key, std::string(100, 'v')).ok());
    ASSERT_TRUE(db->Get(ReadOptions(), key, &value).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  stop.store(true);
  scraper.join();
  std::string text;
  ASSERT_TRUE(db->GetProperty("shield.metrics", &text));
  EXPECT_NE(std::string::npos,
            text.find("shield_lsm_flush_bytes_written_total{node=\"w\""));
}

}  // namespace
}  // namespace shield
