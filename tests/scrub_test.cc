// Tests for the self-healing integrity scrubber: tamper detection with
// file/offset attribution, pre-auth-tag format compatibility, local
// salvage, replica repair on disaggregated storage, and the background
// scrub thread.

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ds/storage_service.h"
#include "env/fault_injection_env.h"
#include "gtest/gtest.h"
#include "kds/local_kds.h"
#include "lsm/db.h"
#include "lsm/error_handler.h"
#include "test_util.h"
#include "util/clock.h"

namespace shield {
namespace {

constexpr char kDbName[] = "/db";

std::string Property(DB* db, const std::string& name) {
  std::string value;
  EXPECT_TRUE(db->GetProperty("shield." + name, &value)) << name;
  return value;
}

std::string TestValue(int i) {
  return "value-" + std::to_string(i) + "-" + std::string(100, 'p');
}

std::string TestKey(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "key%06d", i);
  return buf;
}

// Lists the table files currently in the DB directory of `env`,
// oldest first.
std::vector<std::string> ListSstFiles(Env* env) {
  std::vector<std::string> children;
  EXPECT_TRUE(env->GetChildren(kDbName, &children).ok());
  std::vector<std::string> ssts;
  for (const std::string& child : children) {
    if (child.size() > 4 && child.substr(child.size() - 4) == ".sst") {
      ssts.push_back(child);
    }
  }
  std::sort(ssts.begin(), ssts.end());
  return ssts;
}

// Flips a bit 25% into the physical file: early data blocks, never the
// footer/index region at the tail.
void FlipBitInDataRegion(FaultInjectionEnv* fault_env, Env* raw_env,
                         const std::string& fname) {
  uint64_t size = 0;
  ASSERT_TRUE(raw_env->GetFileSize(fname, &size).ok());
  ASSERT_GT(size, 256u);
  ASSERT_TRUE(fault_env->FlipBit(fname, (size / 4) * 8).ok());
}

class ScrubListener : public EventListener {
 public:
  void OnBackgroundError(BackgroundErrorReason, const Status&,
                         ErrorSeverity) override {
    errors++;
  }
  void OnIntegrityViolation(const std::string& fname,
                            const Status&) override {
    violations++;
    last_violation_file = fname;
  }
  void OnFileRepaired(const std::string& fname, bool from_replica) override {
    repairs++;
    last_repair_file = fname;
    last_repair_from_replica = from_replica;
  }

  std::atomic<int> errors{0};
  std::atomic<int> violations{0};
  std::atomic<int> repairs{0};
  std::atomic<bool> last_repair_from_replica{false};
  std::string last_violation_file;
  std::string last_repair_file;
};

// --- Monolithic deployment: detection and local salvage ---------------------

class ScrubTest : public ::testing::Test {
 protected:
  ScrubTest() : mem_env_(NewMemEnv()), kds_(std::make_shared<LocalKds>()) {
    FaultInjectionOptions fopts;
    fopts.seed = 99;
    fault_env_ = std::make_unique<FaultInjectionEnv>(mem_env_.get(), fopts);
    fault_env_->SetFaultsEnabled(false);
    listener_ = std::make_shared<ScrubListener>();
  }

  Options MakeOptions() {
    Options options;
    options.env = fault_env_.get();
    options.write_buffer_size = 256 * 1024;  // one SST per Flush
    options.encryption.mode = EncryptionMode::kShield;
    options.encryption.kds = kds_;
    options.listeners = {listener_};
    return options;
  }

  void Open(const Options& options) {
    db_.reset();
    DB* db = nullptr;
    ASSERT_TRUE(DB::Open(options, kDbName, &db).ok());
    db_.reset(db);
  }

  void WriteAndFlush(int n) {
    for (int i = 0; i < n; i++) {
      shadow_[TestKey(i)] = TestValue(i);
      ASSERT_TRUE(db_->Put(WriteOptions(), TestKey(i), TestValue(i)).ok());
    }
    ASSERT_TRUE(db_->Flush().ok());
  }

  // Returns {matching, missing, wrong} counts of a full scan against
  // the shadow model.
  void ScanAgainstShadow(int* matching, int* missing, int* wrong) {
    *matching = *missing = *wrong = 0;
    std::map<std::string, std::string> seen;
    std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      seen[iter->key().ToString()] = iter->value().ToString();
    }
    EXPECT_TRUE(iter->status().ok()) << iter->status().ToString();
    for (const auto& [key, value] : shadow_) {
      auto it = seen.find(key);
      if (it == seen.end()) {
        (*missing)++;
      } else if (it->second == value) {
        (*matching)++;
      } else {
        (*wrong)++;
      }
    }
  }

  std::unique_ptr<Env> mem_env_;
  std::unique_ptr<FaultInjectionEnv> fault_env_;
  std::shared_ptr<LocalKds> kds_;
  std::shared_ptr<ScrubListener> listener_;
  std::map<std::string, std::string> shadow_;
  std::unique_ptr<DB> db_;
};

TEST_F(ScrubTest, CleanDbPassesVerifyIntegrity) {
  Open(MakeOptions());
  WriteAndFlush(300);
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
  EXPECT_EQ(Property(db_.get(), "scrub-corruptions-detected"), "0");
}

TEST_F(ScrubTest, TamperedBlockNamesFileAndOffset) {
  Options options = MakeOptions();
  options.scrub_repair = false;  // detect + report only
  Open(options);
  WriteAndFlush(300);

  const std::vector<std::string> ssts = ListSstFiles(mem_env_.get());
  ASSERT_FALSE(ssts.empty());
  const std::string fname = std::string(kDbName) + "/" + ssts[0];
  FlipBitInDataRegion(fault_env_.get(), mem_env_.get(), fname);

  Status s = db_->VerifyIntegrity();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  // The error names the damaged file and the block offset inside it.
  EXPECT_NE(s.ToString().find(ssts[0]), std::string::npos) << s.ToString();
  EXPECT_NE(s.ToString().find("at offset"), std::string::npos) << s.ToString();

  EXPECT_EQ(Property(db_.get(), "scrub-corruptions-detected"), "1");
  EXPECT_EQ(Property(db_.get(), "scrub-repaired-files"), "0");
  EXPECT_EQ(listener_->violations, 1);
  EXPECT_NE(listener_->last_violation_file.find(ssts[0]), std::string::npos);
  // On-demand detection reports to the caller; it does not stop the DB.
  EXPECT_EQ(Property(db_.get(), "error-handler-state"), "active");
}

TEST_F(ScrubTest, PreAuthTagFilesStillReadable) {
  // Files written by the pre-tag format (no per-block HMAC) must stay
  // readable after an upgrade that enables authentication.
  Options options = MakeOptions();
  options.encryption.authenticate_blocks = false;
  Open(options);
  WriteAndFlush(300);
  db_.reset();

  options.encryption.authenticate_blocks = true;
  Open(options);
  int matching = 0, missing = 0, wrong = 0;
  ScanAgainstShadow(&matching, &missing, &wrong);
  EXPECT_EQ(matching, 300);
  EXPECT_EQ(missing, 0);
  EXPECT_EQ(wrong, 0);
  // The scrubber verifies v1 files by CRC alone — no false alarms.
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
  EXPECT_EQ(Property(db_.get(), "scrub-corruptions-detected"), "0");

  // New SSTs written after the upgrade carry tags; both generations
  // coexist in one tree.
  for (int i = 300; i < 400; i++) {
    shadow_[TestKey(i)] = TestValue(i);
    ASSERT_TRUE(db_->Put(WriteOptions(), TestKey(i), TestValue(i)).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
  ScanAgainstShadow(&matching, &missing, &wrong);
  EXPECT_EQ(matching, 400);
}

TEST_F(ScrubTest, LocalSalvageRecoversReadableEntries) {
  Open(MakeOptions());
  WriteAndFlush(300);

  const std::vector<std::string> ssts = ListSstFiles(mem_env_.get());
  ASSERT_FALSE(ssts.empty());
  const std::string fname = std::string(kDbName) + "/" + ssts[0];
  FlipBitInDataRegion(fault_env_.get(), mem_env_.get(), fname);

  // No replica configured: the scrubber salvages the readable blocks.
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
  EXPECT_EQ(Property(db_.get(), "scrub-corruptions-detected"), "1");
  EXPECT_EQ(Property(db_.get(), "scrub-repaired-files"), "1");
  EXPECT_EQ(Property(db_.get(), "scrub-quarantined-files"), "1");
  EXPECT_EQ(listener_->repairs, 1);
  EXPECT_FALSE(listener_->last_repair_from_replica);
  EXPECT_EQ(Property(db_.get(), "error-handler-state"), "active");

  // The damaged ciphertext is preserved for forensics.
  EXPECT_TRUE(mem_env_->FileExists(fname + ".quarantine"));

  // Entries in the one damaged block are gone; everything else
  // survives, and nothing reads back wrong.
  int matching = 0, missing = 0, wrong = 0;
  ScanAgainstShadow(&matching, &missing, &wrong);
  EXPECT_EQ(wrong, 0);
  EXPECT_GE(missing, 1);
  EXPECT_LE(missing, 80) << "one ~4K block holds a few dozen entries";
  EXPECT_EQ(matching + missing, 300);

  // A second pass finds a clean tree.
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
  EXPECT_EQ(Property(db_.get(), "scrub-corruptions-detected"), "1");
}

// Serves the raw bytes of files captured before they were damaged,
// standing in for the DS storage service's replica.
class CapturedReplicaSource : public FileReplicaSource {
 public:
  void Capture(Env* env, const std::string& fname) {
    ASSERT_TRUE(ReadFileToString(env, fname, &files_[fname]).ok());
  }

  Status FetchFile(const std::string& fname, std::string* contents) override {
    auto it = files_.find(fname);
    if (it == files_.end()) {
      return Status::NotFound("no replica of", fname);
    }
    *contents = it->second;
    return Status::OK();
  }

 private:
  std::map<std::string, std::string> files_;
};

// A bit flip in the format-version byte of a live SST's SHIELD header
// makes the header parser answer NotSupported. On a file the engine
// wrote itself that is damage, so the scrubber must route it into
// repair like any other corruption.
TEST_F(ScrubTest, HeaderVersionBitFlipIsRepaired) {
  CapturedReplicaSource replica;
  Options options = MakeOptions();
  options.replica_source = &replica;
  Open(options);
  WriteAndFlush(300);

  const std::vector<std::string> ssts = ListSstFiles(mem_env_.get());
  ASSERT_FALSE(ssts.empty());
  const std::string fname = std::string(kDbName) + "/" + ssts[0];
  replica.Capture(mem_env_.get(), fname);
  ASSERT_TRUE(fault_env_->FlipBit(fname, 8 * 8 + 2).ok());  // byte 8, bit 2

  Status s = db_->VerifyIntegrity();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(Property(db_.get(), "scrub-corruptions-detected"), "1");
  EXPECT_EQ(Property(db_.get(), "scrub-repaired-files"), "1");
  EXPECT_EQ(listener_->violations, 1);
  EXPECT_TRUE(listener_->last_repair_from_replica);
  EXPECT_TRUE(mem_env_->FileExists(fname + ".quarantine"));

  int matching = 0, missing = 0, wrong = 0;
  ScanAgainstShadow(&matching, &missing, &wrong);
  EXPECT_EQ(matching, 300);
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
}

TEST_F(ScrubTest, BackgroundScrubThreadRepairsAutomatically) {
  Options options = MakeOptions();
  options.scrub_interval_micros = 20 * 1000;  // 20ms between passes
  options.scrub_bytes_per_second = 0;         // unthrottled
  Open(options);
  WriteAndFlush(300);

  const std::vector<std::string> ssts = ListSstFiles(mem_env_.get());
  ASSERT_FALSE(ssts.empty());
  const std::string fname = std::string(kDbName) + "/" + ssts[0];
  FlipBitInDataRegion(fault_env_.get(), mem_env_.get(), fname);

  // No API call: the background thread finds and repairs the damage.
  bool repaired = false;
  for (int i = 0; i < 10000 && !repaired; i++) {
    repaired = Property(db_.get(), "scrub-repaired-files") == "1";
    SleepForMicros(1000);
  }
  EXPECT_TRUE(repaired);
  EXPECT_TRUE(mem_env_->FileExists(fname + ".quarantine"));
  EXPECT_EQ(Property(db_.get(), "error-handler-state"), "active");
}

// --- Disaggregated deployment: replica repair, full fault schedule ----------

// The ISSUE acceptance scenario: a SHIELD instance on simulated
// disaggregated storage (with HDFS-style replication) survives a
// seeded fault schedule of (a) a transient flush failure and (b) a
// flipped ciphertext bit in a live SST, ending back in the active
// state with the corrupt file repaired from the replica and zero
// acknowledged-synced keys lost.
TEST(DisaggregatedScrubTest, FaultScheduleEndsActiveWithZeroLoss) {
  auto backing = NewMemEnv();
  FaultInjectionOptions fopts;
  fopts.seed = 1234;
  FaultInjectionEnv fault_env(backing.get(), fopts);
  fault_env.SetFaultsEnabled(false);

  NetworkSimOptions net;
  net.rtt_micros = 50;
  StorageService service(&fault_env, net, /*replicate=*/true);
  std::unique_ptr<Env> remote = NewRemoteEnv(&service, nullptr);

  auto listener = std::make_shared<ScrubListener>();
  Options options;
  options.env = remote.get();
  options.write_buffer_size = 16 * 1024;
  // The tiny write buffer produces many L0 files; keep write stalls
  // out of the picture so the fault schedule exercises only the error
  // handler, never the L0 backpressure path.
  options.level0_slowdown_writes_trigger = 60;
  options.level0_stop_writes_trigger = 80;
  options.encryption.mode = EncryptionMode::kShield;
  options.encryption.kds = std::make_shared<LocalKds>();
  options.listeners = {listener};
  options.replica_source = &service;
  RetryPolicy resume;
  resume.max_attempts = 1 << 20;
  resume.initial_backoff_micros = 200;
  resume.max_backoff_micros = 1000;
  resume.jitter = 0;
  options.background_error_resume_policy = resume;

  DB* raw_db = nullptr;
  ASSERT_TRUE(DB::Open(options, kDbName, &raw_db).ok());
  std::unique_ptr<DB> db(raw_db);

  // Every key below is written with sync=true: once Put returns OK it
  // is acknowledged-synced and must survive the whole schedule.
  std::map<std::string, std::string> shadow;
  WriteOptions synced;
  synced.sync = true;
  for (int i = 0; i < 150; i++) {
    shadow[TestKey(i)] = TestValue(i);
    ASSERT_TRUE(db->Put(synced, TestKey(i), TestValue(i)).ok());
  }
  ASSERT_TRUE(db->Flush().ok());

  // (a) Transient flush failure: SST appends to the fabric fail with
  // TryAgain until the fault lifts; the DB rides it out in kRecovering.
  {
    FaultInjectionOptions transient = fopts;
    transient.write_error_probability = 1.0;
    transient.permanent_error_ratio = 0.0;
    transient.fault_kind_mask = FileKindBit(FileKind::kSst);
    fault_env.SetOptions(transient);
    fault_env.SetFaultsEnabled(true);
  }
  // Fill until the memtable rolls over once and the failing flush
  // records its first error, then stop: a second rollover would block
  // this thread behind the retrying flush. Transient SST faults never
  // fail the Puts themselves (the WAL is healthy), so each remains an
  // acknowledged-synced write.
  for (int i = 150; i < 450 && listener->errors.load() == 0; i++) {
    shadow[TestKey(i)] = TestValue(i);
    ASSERT_TRUE(db->Put(synced, TestKey(i), TestValue(i)).ok());
    SleepForMicros(500);
  }
  bool recovering = false;
  for (int i = 0; i < 10000 && !recovering; i++) {
    recovering = Property(db.get(), "error-handler-state") == "recovering";
    SleepForMicros(1000);
  }
  ASSERT_TRUE(recovering) << Property(db.get(), "error-handler-state");

  fault_env.SetFaultsEnabled(false);
  bool active = false;
  for (int i = 0; i < 10000 && !active; i++) {
    active = Property(db.get(), "error-handler-state") == "active";
    SleepForMicros(1000);
  }
  ASSERT_TRUE(active) << Property(db.get(), "background-error");
  db->WaitForIdle();
  ASSERT_TRUE(db->Flush().ok());
  db->WaitForIdle();  // let compactions settle before picking a live SST
  EXPECT_NE(Property(db.get(), "error-recoveries"), "0");

  // (b) A single flipped ciphertext bit in a live SST on the primary
  // medium (below the replication tee: the replica copy stays good).
  const std::vector<std::string> ssts = ListSstFiles(backing.get());
  ASSERT_FALSE(ssts.empty());
  const std::string fname = std::string(kDbName) + "/" + ssts[0];
  {
    uint64_t size = 0;
    ASSERT_TRUE(backing->GetFileSize(fname, &size).ok());
    ASSERT_TRUE(fault_env.FlipBit(fname, (size / 4) * 8).ok());
  }

  // The scrub detects the damage and re-fetches the file verbatim from
  // the DS replica.
  ASSERT_TRUE(db->VerifyIntegrity().ok());
  EXPECT_EQ(Property(db.get(), "scrub-corruptions-detected"), "1");
  EXPECT_EQ(Property(db.get(), "scrub-repaired-files"), "1");
  EXPECT_EQ(Property(db.get(), "scrub-quarantined-files"), "1");
  EXPECT_EQ(listener->repairs, 1);
  EXPECT_TRUE(listener->last_repair_from_replica);
  EXPECT_EQ(Property(db.get(), "error-handler-state"), "active");
  EXPECT_TRUE(backing->FileExists(fname + ".quarantine"));

  // Zero acknowledged-synced keys lost: the full scan matches the
  // shadow model exactly.
  std::map<std::string, std::string> seen;
  std::unique_ptr<Iterator> iter(db->NewIterator(ReadOptions()));
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    seen[iter->key().ToString()] = iter->value().ToString();
  }
  ASSERT_TRUE(iter->status().ok()) << iter->status().ToString();
  EXPECT_EQ(seen.size(), shadow.size());
  for (const auto& [key, value] : shadow) {
    auto it = seen.find(key);
    ASSERT_TRUE(it != seen.end()) << "lost acknowledged key " << key;
    EXPECT_EQ(it->second, value) << key;
  }

  // And a second pass confirms the repaired tree is clean.
  ASSERT_TRUE(db->VerifyIntegrity().ok());
}

}  // namespace
}  // namespace shield
