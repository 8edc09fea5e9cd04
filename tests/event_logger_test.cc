// Tests for the structured event-logging plane: JsonWriter escaping,
// EventLogger emission, the DB's JSON-lines info LOG (every line must
// parse as valid JSON), LOG rotation, and the observability properties
// (shield.levelstats, shield.dek-cache-stats, shield.metrics).

#include <cctype>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "kds/local_kds.h"
#include "lsm/db.h"
#include "lsm/file_names.h"
#include "test_util.h"
#include "util/event_logger.h"
#include "util/logger.h"
#include "util/statistics.h"

namespace shield {
namespace {

// --- A strict little JSON parser -------------------------------------------
// Validates RFC 8259 syntax; used to prove every emitted line is real
// JSON, not something JSON-shaped.

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Valid() {
    pos_ = 0;
    SkipWs();
    if (!ParseValue()) {
      return false;
    }
    SkipWs();
    return pos_ == text_.size();  // no trailing garbage
  }

 private:
  bool ParseValue() {
    if (pos_ >= text_.size()) {
      return false;
    }
    switch (text_[pos_]) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return ParseString();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return ParseNumber();
    }
  }

  bool ParseObject() {
    pos_++;  // '{'
    SkipWs();
    if (Peek() == '}') {
      pos_++;
      return true;
    }
    while (true) {
      SkipWs();
      if (Peek() != '"' || !ParseString()) {
        return false;
      }
      SkipWs();
      if (Peek() != ':') {
        return false;
      }
      pos_++;
      SkipWs();
      if (!ParseValue()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        pos_++;
        continue;
      }
      if (Peek() == '}') {
        pos_++;
        return true;
      }
      return false;
    }
  }

  bool ParseArray() {
    pos_++;  // '['
    SkipWs();
    if (Peek() == ']') {
      pos_++;
      return true;
    }
    while (true) {
      SkipWs();
      if (!ParseValue()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        pos_++;
        continue;
      }
      if (Peek() == ']') {
        pos_++;
        return true;
      }
      return false;
    }
  }

  bool ParseString() {
    pos_++;  // '"'
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        pos_++;
        return true;
      }
      if (c < 0x20) {
        return false;  // raw control character: invalid JSON
      }
      if (c == '\\') {
        pos_++;
        if (pos_ >= text_.size()) {
          return false;
        }
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; i++) {
            pos_++;
            if (pos_ >= text_.size() || !isxdigit(
                    static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (strchr("\"\\/bfnrt", esc) == nullptr) {
          return false;
        }
      }
      pos_++;
    }
    return false;  // unterminated
  }

  bool ParseNumber() {
    const size_t start = pos_;
    if (Peek() == '-') {
      pos_++;
    }
    while (isdigit(static_cast<unsigned char>(Peek()))) {
      pos_++;
    }
    if (Peek() == '.') {
      pos_++;
      while (isdigit(static_cast<unsigned char>(Peek()))) {
        pos_++;
      }
    }
    if (Peek() == 'e' || Peek() == 'E') {
      pos_++;
      if (Peek() == '+' || Peek() == '-') {
        pos_++;
      }
      while (isdigit(static_cast<unsigned char>(Peek()))) {
        pos_++;
      }
    }
    return pos_ > start && isdigit(static_cast<unsigned char>(
                               text_[pos_ - 1]));
  }

  bool Literal(const char* lit) {
    const size_t len = strlen(lit);
    if (text_.compare(pos_, len, lit) != 0) {
      return false;
    }
    pos_ += len;
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      pos_++;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

bool IsValidJson(const std::string& text) {
  return JsonParser(text).Valid();
}

// LOG lines are framed "<walltime> <LEVEL> <payload>"; the payload of
// an event line is the JSON object. Returns false if no payload.
bool ExtractJsonPayload(const std::string& line, std::string* payload) {
  const size_t brace = line.find('{');
  if (brace == std::string::npos) {
    return false;
  }
  *payload = line.substr(brace);
  return true;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      end = text.size();
    }
    if (end > start) {
      lines.push_back(text.substr(start, end - start));
    }
    start = end + 1;
  }
  return lines;
}

// Pulls the "event" name out of a parsed-valid event line.
std::string EventName(const std::string& json) {
  const std::string key = "\"event\":\"";
  const size_t at = json.find(key);
  if (at == std::string::npos) {
    return "";
  }
  const size_t begin = at + key.size();
  const size_t end = json.find('"', begin);
  return json.substr(begin, end - begin);
}

// --- JsonWriter -------------------------------------------------------------

TEST(JsonParserTest, SelfCheck) {
  EXPECT_TRUE(IsValidJson("{}"));
  EXPECT_TRUE(IsValidJson("{\"a\":1,\"b\":[1,2],\"c\":\"x\",\"d\":true}"));
  EXPECT_TRUE(IsValidJson("{\"a\":-1.5e3,\"b\":null}"));
  EXPECT_FALSE(IsValidJson(""));
  EXPECT_FALSE(IsValidJson("{"));
  EXPECT_FALSE(IsValidJson("{\"a\":}"));
  EXPECT_FALSE(IsValidJson("{\"a\":1,}"));
  EXPECT_FALSE(IsValidJson("{\"a\":1} trailing"));
  EXPECT_FALSE(IsValidJson("{\"a\":\"unterminated}"));
  EXPECT_FALSE(IsValidJson(std::string("{\"a\":\"\x01\"}")));  // raw control
  EXPECT_FALSE(IsValidJson("{\"a\":\"bad\\escape\"}"));
}

TEST(JsonWriterTest, AllValueTypes) {
  JsonWriter w;
  w.Add("str", Slice("plain"));
  w.Add("stdstr", std::string("s2"));
  w.Add("cstr", "s3");
  w.Add("u64", static_cast<uint64_t>(18446744073709551615ull));
  w.Add("i64", static_cast<int64_t>(-42));
  w.Add("i", 7);
  w.Add("dbl", 1.5);
  w.Add("yes", true);
  w.Add("no", false);
  w.AddArray("arr", {1, 2, 3});
  w.AddArray("empty", {});
  const std::string out = w.Finish();
  EXPECT_TRUE(IsValidJson(out)) << out;
  EXPECT_NE(std::string::npos, out.find("\"u64\":18446744073709551615"));
  EXPECT_NE(std::string::npos, out.find("\"i64\":-42"));
  EXPECT_NE(std::string::npos, out.find("\"arr\":[1,2,3]"));
  EXPECT_NE(std::string::npos, out.find("\"empty\":[]"));
  // Finish is idempotent: no double closing brace.
  EXPECT_EQ(out, w.Finish());
}

TEST(JsonWriterTest, EscapesHostileStrings) {
  JsonWriter w;
  w.Add("quote", "a\"b");
  w.Add("backslash", "a\\b");
  w.Add("newline", "a\nb");
  w.Add("tab", "a\tb");
  w.Add("cr", "a\rb");
  w.Add("ctrl", Slice("a\x01\x1f", 3));
  const std::string out = w.Finish();
  EXPECT_TRUE(IsValidJson(out)) << out;
  EXPECT_NE(std::string::npos, out.find("\"quote\":\"a\\\"b\""));
  EXPECT_NE(std::string::npos, out.find("\"backslash\":\"a\\\\b\""));
  EXPECT_NE(std::string::npos, out.find("\"newline\":\"a\\nb\""));
  EXPECT_NE(std::string::npos, out.find("\"tab\":\"a\\tb\""));
  EXPECT_NE(std::string::npos, out.find("\"cr\":\"a\\rb\""));
  EXPECT_NE(std::string::npos, out.find("\"ctrl\":\"a\\u0001\\u001f\""));
}

TEST(JsonWriterTest, AppendEscapedStandalone) {
  std::string out;
  JsonWriter::AppendEscaped(&out, Slice("he said \"hi\"\n"));
  EXPECT_EQ("\"he said \\\"hi\\\"\\n\"", out);
}

// --- EventLogger ------------------------------------------------------------

// Captures LogRaw payloads verbatim, like the file logger minus framing.
class CapturingLogger final : public Logger {
 public:
  void Logv(InfoLogLevel level, const char* format, va_list ap) override {
    char buf[512];
    vsnprintf(buf, sizeof(buf), format, ap);
    LogRaw(level, Slice(buf));
  }
  void LogRaw(InfoLogLevel level, const Slice& line) override {
    if (level < GetInfoLogLevel()) {
      return;
    }
    lines.emplace_back(line.data(), line.size());
  }
  std::vector<std::string> lines;
};

TEST(EventLoggerTest, EmitsOneValidJsonObjectPerEvent) {
  CapturingLogger logger;
  auto stats = CreateDBStatistics();
  EventLogger events(&logger, stats.get());
  ASSERT_TRUE(events.enabled());

  JsonWriter w = events.NewEvent("flush_begin");
  w.Add("file_number", static_cast<uint64_t>(12));
  w.Add("path", "sst/000012.sst\n");  // hostile value
  events.Emit(&w);

  JsonWriter w2 = events.NewEvent("flush_end");
  w2.Add("ok", true);
  events.Emit(&w2);

  ASSERT_EQ(2u, logger.lines.size());
  for (const std::string& line : logger.lines) {
    EXPECT_TRUE(IsValidJson(line)) << line;
    EXPECT_NE(std::string::npos, line.find("\"ts_micros\":"));
  }
  EXPECT_EQ("flush_begin", EventName(logger.lines[0]));
  EXPECT_EQ("flush_end", EventName(logger.lines[1]));
  EXPECT_EQ(2u, stats->GetTickerCount(Tickers::kShieldEventsEmitted));
}

TEST(EventLoggerTest, NullLoggerSwallowsEverything) {
  EventLogger events(nullptr);
  EXPECT_FALSE(events.enabled());
  JsonWriter w = events.NewEvent("ignored");
  w.Add("k", 1);
  events.Emit(&w);  // must not crash
}

// --- The DB's info LOG ------------------------------------------------------

class DBLogTest : public ::testing::Test {
 protected:
  DBLogTest() : env_(NewMemEnv()) {}

  Options MakeOptions() {
    Options options;
    options.env = env_.get();
    return options;
  }

  void Open(const Options& options) {
    db_.reset();
    DB* db = nullptr;
    Status s = DB::Open(options, "/db", &db);
    ASSERT_TRUE(s.ok()) << s.ToString();
    db_.reset(db);
  }

  void FillAndFlush(int base, int n) {
    for (int i = 0; i < n; i++) {
      char key[16];
      snprintf(key, sizeof(key), "key%06d", base + i);
      ASSERT_TRUE(
          db_->Put(WriteOptions(), key, std::string(100, 'v')).ok());
    }
    ASSERT_TRUE(db_->Flush().ok());
  }

  std::string ReadLog() {
    std::string contents;
    EXPECT_TRUE(
        ReadFileToString(env_.get(), InfoLogFileName("/db"), &contents).ok());
    return contents;
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<DB> db_;
};

TEST_F(DBLogTest, EveryLogLineIsValidJson) {
  Open(MakeOptions());
  // Overlapping key ranges: the manual compaction below must merge
  // both L0 files (a trivial move would skip the compaction events).
  FillAndFlush(0, 50);
  FillAndFlush(25, 50);
  ASSERT_TRUE(db_->CompactRange(nullptr, nullptr).ok());
  db_.reset();  // flush the logger

  const std::vector<std::string> lines = SplitLines(ReadLog());
  ASSERT_FALSE(lines.empty());
  std::set<std::string> seen;
  for (const std::string& line : lines) {
    std::string payload;
    ASSERT_TRUE(ExtractJsonPayload(line, &payload))
        << "non-event line in LOG: " << line;
    EXPECT_TRUE(IsValidJson(payload)) << payload;
    EXPECT_NE(std::string::npos, payload.find("\"ts_micros\":")) << payload;
    seen.insert(EventName(payload));
  }
  // The workload exercised open, two flushes (with WAL rolls) and a
  // forced compaction; all of them must have left events.
  for (const char* want : {"db_open", "wal_roll", "flush_begin", "flush_end",
                           "compaction_begin", "compaction_end"}) {
    EXPECT_TRUE(seen.count(want)) << "missing event: " << want;
  }
}

TEST_F(DBLogTest, DbOpenEventRecordsSanitizedConfig) {
  Options options = MakeOptions();
  options.encryption.mode = EncryptionMode::kShield;
  options.encryption.kds = std::make_shared<LocalKds>();
  Open(options);
  db_.reset();

  const std::vector<std::string> lines = SplitLines(ReadLog());
  std::string db_open;
  for (const std::string& line : lines) {
    std::string payload;
    if (ExtractJsonPayload(line, &payload) &&
        EventName(payload) == "db_open") {
      db_open = payload;
      break;
    }
  }
  ASSERT_FALSE(db_open.empty());
  EXPECT_TRUE(IsValidJson(db_open)) << db_open;
  EXPECT_NE(std::string::npos, db_open.find("\"encryption_mode\":\"shield\""));
  EXPECT_NE(std::string::npos, db_open.find("\"write_buffer_size\":"));
  // The LOG is plaintext by design: no key material may ever appear.
  const std::string log = ReadLog();
  EXPECT_EQ(std::string::npos, log.find("\"key\""));
  EXPECT_EQ(std::string::npos, log.find("passkey"));
}

TEST_F(DBLogTest, LogRotatesAtSizeLimitAndPrunes) {
  Options options = MakeOptions();
  options.max_log_file_size = 2048;  // tiny: a few events per file
  options.keep_log_file_num = 2;
  Open(options);
  for (int round = 0; round < 8; round++) {
    FillAndFlush(round * 10, 10);
  }
  db_.reset();

  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren("/db", &children).ok());
  size_t rotated = 0;
  bool has_current = false;
  for (const std::string& child : children) {
    if (child == "LOG") {
      has_current = true;
    } else if (child.rfind("LOG.old.", 0) == 0) {
      rotated++;
    }
  }
  EXPECT_TRUE(has_current);
  EXPECT_GE(rotated, 1u);
  EXPECT_LE(rotated, options.keep_log_file_num);

  // Rotated files hold valid JSON event lines too.
  for (const std::string& child : children) {
    if (child.rfind("LOG.old.", 0) != 0) {
      continue;
    }
    std::string contents;
    ASSERT_TRUE(
        ReadFileToString(env_.get(), "/db/" + child, &contents).ok());
    for (const std::string& line : SplitLines(contents)) {
      std::string payload;
      ASSERT_TRUE(ExtractJsonPayload(line, &payload)) << line;
      EXPECT_TRUE(IsValidJson(payload)) << payload;
    }
  }
}

TEST_F(DBLogTest, ReopenRotatesPreviousLogAside) {
  Open(MakeOptions());
  db_.reset();
  Open(MakeOptions());
  db_.reset();

  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren("/db", &children).ok());
  bool has_rotated = false;
  for (const std::string& child : children) {
    has_rotated = has_rotated || child.rfind("LOG.old.", 0) == 0;
  }
  // The first run's LOG survives the second Open as LOG.old.1.
  EXPECT_TRUE(has_rotated);
}

// --- Observability properties -----------------------------------------------

TEST_F(DBLogTest, LevelStatsProperty) {
  Open(MakeOptions());
  FillAndFlush(0, 50);
  FillAndFlush(50, 50);

  std::string value;
  ASSERT_TRUE(db_->GetProperty("shield.levelstats", &value));
  const std::vector<std::string> lines = SplitLines(value);
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ("level files bytes", lines[0]);
  int level = -1, files = -1;
  long long bytes = -1;
  ASSERT_EQ(3, sscanf(lines[1].c_str(), "%d %d %lld", &level, &files,
                      &bytes));
  EXPECT_EQ(0, level);
  EXPECT_EQ(2, files);  // two flushed L0 tables
  EXPECT_GT(bytes, 0);
  // One row per configured level after the header.
  Options defaults;
  EXPECT_EQ(static_cast<size_t>(defaults.num_levels) + 1, lines.size());
}

TEST_F(DBLogTest, DekCacheStatsProperty) {
  // Without SHIELD encryption there is no DEK manager: all-zero stats.
  Options plain = MakeOptions();
  plain.statistics = CreateDBStatistics();
  Open(plain);
  std::string value;
  ASSERT_TRUE(db_->GetProperty("shield.dek-cache-stats", &value));
  EXPECT_EQ("hits=0 misses=0 evictions=0 entries=0", value);
  db_.reset();

  Options options = MakeOptions();
  options.env = env_.get();
  options.encryption.mode = EncryptionMode::kShield;
  options.encryption.kds = std::make_shared<LocalKds>();
  options.statistics = CreateDBStatistics();
  db_.reset();
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db2", &raw).ok());
  db_.reset(raw);
  FillAndFlush(0, 30);
  std::string got;
  ASSERT_TRUE(db_->Get(ReadOptions(), "key000005", &got).ok());

  ASSERT_TRUE(db_->GetProperty("shield.dek-cache-stats", &value));
  unsigned long long hits = 0, misses = 0, evictions = 0, entries = 0;
  ASSERT_EQ(4, sscanf(value.c_str(),
                      "hits=%llu misses=%llu evictions=%llu entries=%llu",
                      &hits, &misses, &evictions, &entries));
  // Creating and reading files exercised the DEK cache.
  EXPECT_GT(hits + misses, 0ull);
  EXPECT_GT(entries, 0ull);
}

TEST_F(DBLogTest, MetricsPropertyRequiresStatistics) {
  Open(MakeOptions());
  std::string value;
  EXPECT_FALSE(db_->GetProperty("shield.metrics", &value));
  db_.reset();

  Options options = MakeOptions();
  options.statistics = CreateDBStatistics();
  Open(options);
  FillAndFlush(0, 20);
  ASSERT_TRUE(db_->GetProperty("shield.metrics", &value));
  EXPECT_NE(std::string::npos, value.find("# TYPE "));
  EXPECT_NE(std::string::npos, value.find("shield_"));
  EXPECT_NE(std::string::npos, value.find("shield_level_files{level=\"0\"}"));
  EXPECT_NE(std::string::npos, value.find("shield_level_bytes"));
}

TEST_F(DBLogTest, CounterPropertiesReadTheirTickers) {
  const std::pair<const char*, Tickers> counters[] = {
      {"shield.stall-micros", Tickers::kLsmStallMicros},
      {"shield.offload-fallbacks", Tickers::kLsmOffloadFallbacks},
      {"shield.recovery-salvaged-logs", Tickers::kLsmRecoverySalvagedLogs},
      {"shield.scrub-corruptions-detected", Tickers::kShieldScrubCorruptions},
      {"shield.scrub-repaired-files", Tickers::kShieldScrubRepaired},
      {"shield.scrub-quarantined-files", Tickers::kShieldScrubQuarantined},
      {"shield.rotation-files-rotated",
       Tickers::kShieldRotationFilesRewritten},
      {"shield.kds-requests", Tickers::kKdsRequests},
      {"shield.dek-cache-hits", Tickers::kShieldDekCacheHit},
  };

  // Without a Statistics there is no count to read; state properties
  // still answer.
  Open(MakeOptions());
  std::string value;
  for (const auto& [name, ticker] : counters) {
    EXPECT_FALSE(db_->GetProperty(name, &value)) << name;
  }
  EXPECT_FALSE(db_->GetProperty("shield.dek-cache-stats", &value));
  EXPECT_TRUE(db_->GetProperty("shield.rotation-state", &value));
  EXPECT_EQ("idle", value);
  db_.reset();

  // With one, each property is its ticker, whoever ticked it. Distinct
  // counts catch a property wired to the wrong ticker.
  Options options = MakeOptions();
  options.statistics = CreateDBStatistics();
  Open(options);
  Statistics* stats = options.statistics.get();
  uint64_t count = 100;
  for (const auto& [name, ticker] : counters) {
    stats->RecordTick(ticker, count++);
  }
  stats->RecordTick(Tickers::kShieldDekCacheMiss, 7);
  stats->RecordTick(Tickers::kShieldDekCacheEvictions, 3);
  for (const auto& [name, ticker] : counters) {
    ASSERT_TRUE(db_->GetProperty(name, &value)) << name;
    EXPECT_EQ(std::to_string(stats->GetTickerCount(ticker)), value) << name;
  }
  ASSERT_TRUE(db_->GetProperty("shield.dek-cache-hits", &value));
  EXPECT_EQ("108", value);
  ASSERT_TRUE(db_->GetProperty("shield.dek-cache-stats", &value));
  EXPECT_EQ("hits=108 misses=7 evictions=3 entries=0", value);
}

}  // namespace
}  // namespace shield
