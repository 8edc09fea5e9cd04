// Online DEK rotation and encrypted backup/restore.
//
// Covers the rotation state machine (fresh plan, bounded pass, crash
// resume from the ROTATION manifest, stale manifest entries), rotation
// under injected storage faults, rotation as an in-place compaction
// (local and offloaded), the backup -> revoke source ->
// restore-to-new-identity flow against a shadow model, and the signed
// bundle format backups and dumps share.

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ds/compaction_worker.h"
#include "env/fault_injection_env.h"
#include "gtest/gtest.h"
#include "kds/local_kds.h"
#include "kds/sim_kds.h"
#include "lsm/bundle.h"
#include "lsm/db.h"
#include "lsm/file_names.h"
#include "lsm/rotation_manifest.h"
#include "shield/file_crypto.h"
#include "test_util.h"
#include "util/clock.h"

namespace shield {
namespace {

constexpr char kDbPath[] = "/db";

class RotationTest : public ::testing::Test {
 protected:
  RotationTest() : env_(NewMemEnv()), kds_(std::make_shared<LocalKds>()) {}

  Options MakeOptions(Env* env) {
    Options options;
    options.env = env;
    options.write_buffer_size = 32 * 1024;
    options.encryption.mode = EncryptionMode::kShield;
    options.encryption.kds = kds_;
    return options;
  }

  void Open(Env* env) {
    db_.reset();
    DB* db = nullptr;
    Status s = DB::Open(MakeOptions(env), kDbPath, &db);
    ASSERT_TRUE(s.ok()) << s.ToString();
    db_.reset(db);
  }

  void Close() { db_.reset(); }

  // Writes `count` keys starting at `begin` and flushes, producing at
  // least one fresh SST per call.
  void FillAndFlush(int begin, int count) {
    WriteOptions wopts;
    for (int i = begin; i < begin + count; i++) {
      char key[32];
      snprintf(key, sizeof(key), "key-%06d", i);
      const std::string value(100, static_cast<char>('a' + (i % 26)));
      ASSERT_TRUE(db_->Put(wopts, key, value).ok());
      shadow_[key] = value;
    }
    ASSERT_TRUE(db_->Flush().ok());
  }

  void VerifyAllKeys(DB* db) {
    ReadOptions ropts;
    for (const auto& [key, expected] : shadow_) {
      std::string value;
      Status s = db->Get(ropts, key, &value);
      ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
      EXPECT_EQ(expected, value) << key;
    }
  }

  // DEK ids embedded in the headers of every live .sst file.
  std::set<std::string> SstDekIds(Env* env) {
    std::set<std::string> ids;
    std::vector<std::string> children;
    EXPECT_TRUE(env->GetChildren(kDbPath, &children).ok());
    for (const std::string& child : children) {
      if (child.size() < 4 || child.substr(child.size() - 4) != ".sst") {
        continue;
      }
      ShieldFileHeader header;
      if (ReadShieldFileHeader(env, std::string(kDbPath) + "/" + child,
                               &header)
              .ok()) {
        ids.insert(header.dek_id.ToHex());
      }
    }
    return ids;
  }

  void WaitRotationIdle() {
    std::string state;
    for (int i = 0; i < 2000; i++) {
      ASSERT_TRUE(db_->GetProperty("shield.rotation-state", &state));
      if (state == "idle") {
        return;
      }
      SleepForMicros(10 * 1000);
    }
    FAIL() << "rotation did not reach idle, state=" << state;
  }

  void ExpectDeksDeleted(const std::set<std::string>& ids) {
    for (const std::string& hex : ids) {
      DekId id;
      ASSERT_TRUE(DekId::FromHex(hex, &id));
      Dek dek;
      EXPECT_TRUE(kds_->GetDek("any", id, &dek).IsNotFound())
          << "pre-rotation DEK still resolvable: " << hex;
    }
  }

  std::unique_ptr<Env> env_;
  std::shared_ptr<LocalKds> kds_;
  std::unique_ptr<DB> db_;
  std::map<std::string, std::string> shadow_;
};

TEST_F(RotationTest, FullRotationAssignsFreshDeksAndDestroysOld) {
  Open(env_.get());
  FillAndFlush(0, 200);
  FillAndFlush(200, 200);
  FillAndFlush(400, 200);
  db_->WaitForIdle();

  const std::set<std::string> before = SstDekIds(env_.get());
  ASSERT_FALSE(before.empty());

  RotateOptions opts;
  RotateResult result;
  Status s = db_->RotateDeks(opts, &result);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GE(result.files_rotated, 1u);
  EXPECT_EQ(0u, result.files_pending);

  const std::set<std::string> after = SstDekIds(env_.get());
  ASSERT_FALSE(after.empty());
  for (const std::string& id : after) {
    EXPECT_EQ(0u, before.count(id)) << "file still on pre-rotation DEK";
  }
  ExpectDeksDeleted(before);
  VerifyAllKeys(db_.get());

  std::string state;
  ASSERT_TRUE(db_->GetProperty("shield.rotation-state", &state));
  EXPECT_EQ("idle", state);
  RotationManifest manifest;
  EXPECT_TRUE(
      RotationManifest::Load(env_.get(), kDbPath, &manifest).IsNotFound());
}

TEST_F(RotationTest, RotationIsIdempotentWhenDeksAreFresh) {
  Open(env_.get());
  FillAndFlush(0, 200);
  RotateOptions opts;
  RotateResult first;
  ASSERT_TRUE(db_->RotateDeks(opts, &first).ok());
  ASSERT_GE(first.files_rotated, 1u);

  // Nothing is older than an hour now: a bounded-age pass is a no-op.
  opts.max_dek_age_micros = 60ull * 60 * 1000 * 1000;
  RotateResult second;
  ASSERT_TRUE(db_->RotateDeks(opts, &second).ok());
  EXPECT_EQ(0u, second.files_rotated);
  VerifyAllKeys(db_.get());
}

// A bounded pass persists the remainder in the ROTATION manifest; a
// reopen (the crash case — nothing in the manifest depends on a clean
// shutdown) resumes from it and finishes without replanning.
TEST_F(RotationTest, BoundedRotationResumesAfterReopen) {
  Open(env_.get());
  FillAndFlush(0, 200);
  FillAndFlush(200, 200);
  FillAndFlush(400, 200);
  db_->WaitForIdle();

  const std::set<std::string> before = SstDekIds(env_.get());
  ASSERT_GE(before.size(), 2u);

  RotateOptions opts;
  opts.max_files = 1;
  RotateResult result;
  ASSERT_TRUE(db_->RotateDeks(opts, &result).ok());
  EXPECT_EQ(1u, result.files_rotated);
  ASSERT_GE(result.files_pending, 1u);

  RotationManifest manifest;
  ASSERT_TRUE(RotationManifest::Load(env_.get(), kDbPath, &manifest).ok());
  EXPECT_EQ(RotationManifest::State::kRunning, manifest.state);
  EXPECT_EQ(result.files_pending, manifest.pending.size());

  std::string state;
  ASSERT_TRUE(db_->GetProperty("shield.rotation-state", &state));
  EXPECT_EQ("pending:" + std::to_string(result.files_pending), state);

  // Reopen: the pending rotation must resume automatically even with
  // no background rotation interval configured.
  Close();
  Open(env_.get());
  WaitRotationIdle();

  EXPECT_TRUE(
      RotationManifest::Load(env_.get(), kDbPath, &manifest).IsNotFound());
  const std::set<std::string> after = SstDekIds(env_.get());
  for (const std::string& id : after) {
    EXPECT_EQ(0u, before.count(id));
  }
  ExpectDeksDeleted(before);
  VerifyAllKeys(db_.get());
}

// Every bounded step is a persisted crash point: rotate one file at a
// time with a reopen between every step until the manifest is gone.
TEST_F(RotationTest, SingleFileStepsWithReopenBetweenEachStep) {
  Open(env_.get());
  FillAndFlush(0, 150);
  FillAndFlush(150, 150);
  FillAndFlush(300, 150);
  db_->WaitForIdle();
  const std::set<std::string> before = SstDekIds(env_.get());

  // First bounded step plants the manifest.
  RotateOptions opts;
  opts.max_files = 1;
  RotateResult result;
  ASSERT_TRUE(db_->RotateDeks(opts, &result).ok());

  int reopens = 0;
  RotationManifest manifest;
  while (RotationManifest::Load(env_.get(), kDbPath, &manifest).ok() &&
         reopens < 20) {
    Close();
    Open(env_.get());
    WaitRotationIdle();  // resume-at-open finishes the remainder
    reopens++;
  }
  ASSERT_LT(reopens, 20);
  ExpectDeksDeleted(before);
  VerifyAllKeys(db_.get());
}

TEST_F(RotationTest, RotationSurvivesSimulatedCrash) {
  FaultInjectionOptions fopts;
  fopts.torn_write_probability = 0.5;
  FaultInjectionEnv fault_env(env_.get(), fopts);

  Open(&fault_env);
  FillAndFlush(0, 200);
  FillAndFlush(200, 200);
  FillAndFlush(400, 200);
  db_->WaitForIdle();
  const std::set<std::string> before = SstDekIds(&fault_env);

  RotateOptions opts;
  opts.max_files = 1;
  RotateResult result;
  ASSERT_TRUE(db_->RotateDeks(opts, &result).ok());
  ASSERT_GE(result.files_pending, 1u);

  // Crash: drop everything unsynced since the bounded pass. The
  // rotation manifest and the rewritten SST were synced before the old
  // DEK was destroyed, so recovery resumes instead of losing a key.
  Close();
  ASSERT_TRUE(fault_env.SimulateCrash().ok());

  Open(&fault_env);
  WaitRotationIdle();
  ExpectDeksDeleted(before);
  VerifyAllKeys(db_.get());
}

TEST_F(RotationTest, RotationCompletesUnderTransientWriteFaults) {
  FaultInjectionOptions fopts;
  fopts.seed = 11;
  fopts.write_error_probability = 0.02;
  fopts.permanent_error_ratio = 0.0;  // all injected errors transient
  FaultInjectionEnv fault_env(env_.get(), fopts);
  fault_env.SetFaultsEnabled(false);

  Open(&fault_env);
  FillAndFlush(0, 200);
  FillAndFlush(200, 200);
  db_->WaitForIdle();
  const std::set<std::string> before = SstDekIds(&fault_env);

  fault_env.SetFaultsEnabled(true);
  RotateOptions opts;
  RotateResult result;
  for (int attempt = 0; attempt < 50; attempt++) {
    Status s = db_->RotateDeks(opts, &result);
    if (s.ok() && result.files_pending == 0) {
      break;
    }
    // A transient fault aborted the pass (or tripped the error
    // handler); clear it and retry — progress is monotone because
    // finished files are persisted per step.
    db_->Resume();
  }
  fault_env.SetFaultsEnabled(false);
  ASSERT_TRUE(db_->RotateDeks(opts, &result).ok());
  EXPECT_EQ(0u, result.files_pending);

  ExpectDeksDeleted(before);
  VerifyAllKeys(db_.get());
}

// Regression: a rotation manifest that names files compacted away in
// the meantime (or corrupted counters) must not wedge rotation — stale
// entries are skipped and the rotation still completes.
TEST_F(RotationTest, StaleManifestEntriesAreSkipped) {
  Open(env_.get());
  FillAndFlush(0, 200);
  db_->WaitForIdle();
  const std::set<std::string> before = SstDekIds(env_.get());
  Close();

  // Mix every real table-file number with entries that no longer
  // exist (never-created numbers model files compacted away after the
  // plan was persisted).
  std::vector<uint64_t> real_numbers;
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren(kDbPath, &children).ok());
  for (const std::string& child : children) {
    if (child.size() > 4 && child.substr(child.size() - 4) == ".sst") {
      real_numbers.push_back(strtoull(child.c_str(), nullptr, 10));
    }
  }
  ASSERT_FALSE(real_numbers.empty());

  RotationManifest manifest;
  manifest.rotation_id = 7;
  manifest.state = RotationManifest::State::kRunning;
  manifest.pending.push_back(424242);
  manifest.pending.insert(manifest.pending.end(), real_numbers.begin(),
                          real_numbers.end());
  manifest.pending.push_back(999999);
  ASSERT_TRUE(manifest.Save(env_.get(), kDbPath).ok());

  Open(env_.get());
  WaitRotationIdle();
  EXPECT_TRUE(
      RotationManifest::Load(env_.get(), kDbPath, &manifest).IsNotFound());
  const std::set<std::string> after = SstDekIds(env_.get());
  for (const std::string& id : after) {
    EXPECT_EQ(0u, before.count(id)) << "live file was not rotated";
  }
  VerifyAllKeys(db_.get());
}

TEST_F(RotationTest, BackgroundRotationJobRotatesOldDeks) {
  Options options = MakeOptions(env_.get());
  options.dek_rotation_interval_micros = 20 * 1000;  // 20ms passes
  options.max_dek_age_micros = 1;  // everything is immediately "old"
  DB* db = nullptr;
  ASSERT_TRUE(DB::Open(options, kDbPath, &db).ok());
  db_.reset(db);

  FillAndFlush(0, 200);
  const std::set<std::string> before = SstDekIds(env_.get());
  ASSERT_FALSE(before.empty());

  // The background job must eventually rewrite every file without any
  // explicit RotateDeks call.
  bool rotated = false;
  for (int i = 0; i < 1000 && !rotated; i++) {
    SleepForMicros(10 * 1000);
    const std::set<std::string> now = SstDekIds(env_.get());
    rotated = !now.empty();
    for (const std::string& id : now) {
      if (before.count(id) > 0) {
        rotated = false;
      }
    }
  }
  EXPECT_TRUE(rotated) << "background rotation never rewrote the SSTs";
  VerifyAllKeys(db_.get());
}

TEST_F(RotationTest, CloseDuringPacedBackgroundPassIsPrompt) {
  Open(env_.get());
  FillAndFlush(0, 200);
  Close();
  uint64_t sst_bytes = 0;
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren(kDbPath, &children).ok());
  for (const std::string& child : children) {
    uint64_t size = 0;
    if (child.size() > 4 && child.substr(child.size() - 4) == ".sst" &&
        env_->GetFileSize(std::string(kDbPath) + "/" + child, &size).ok()) {
      sst_bytes += size;
    }
  }
  ASSERT_GT(sst_bytes, 0u);

  // Reopen with background rotation paced so the sleep after each file
  // lasts about 60 s.
  test::SstOpenCountingEnv counting_env(env_.get());
  Options options = MakeOptions(&counting_env);
  options.dek_rotation_interval_micros = 1000;
  options.rotation_bytes_per_second = std::max<uint64_t>(1, sst_bytes / 60);
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, kDbPath, &raw).ok());
  std::unique_ptr<DB> db(raw);

  // Nothing else reads tables after this open: the first SST opened is
  // the pass rewriting it.
  for (int i = 0; i < 10000 && counting_env.sst_opens.load() == 0; i++) {
    SleepForMicros(1000);
  }
  ASSERT_GT(counting_env.sst_opens.load(), 0) << "rotation pass never started";

  const uint64_t start = NowMicros();
  db.reset();
  EXPECT_LT(NowMicros() - start, 5ull * 1000 * 1000)
      << "close waited out the rotation pacing";
}

TEST_F(RotationTest, RotateNotSupportedWithoutShield) {
  Options options;
  options.env = env_.get();
  DB* db = nullptr;
  ASSERT_TRUE(DB::Open(options, "/plain", &db).ok());
  std::unique_ptr<DB> owned(db);
  RotateOptions opts;
  RotateResult result;
  EXPECT_TRUE(db->RotateDeks(opts, &result).IsNotSupported());
}

// Rotation rewrites each file as a one-file compaction in place at its
// level, run locally or on a RemoteCompactionWorker.
class RotationJobTest : public RotationTest,
                        public ::testing::WithParamInterface<bool> {
 protected:
  ~RotationJobTest() override { db_.reset(); }  // before the worker goes

  // Opens with every flush left at L0 and, for the offloaded run, the
  // worker as the compaction service.
  void OpenAtL0(uint64_t target_file_size_base) {
    options_ = MakeOptions(env_.get());
    options_.level0_file_num_compaction_trigger = 1000;
    options_.target_file_size_base = target_file_size_base;
    if (GetParam()) {
      RemoteCompactionWorker::WorkerOptions worker_options;
      worker_options.env = env_.get();
      worker_options.db_options = options_;
      worker_options.db_options.encryption.server_id = "worker";
      worker_options.server_id = "worker";
      worker_ = std::make_unique<RemoteCompactionWorker>(worker_options);
      options_.compaction_service = worker_.get();
    }
    Reopen();
  }

  void Reopen() {
    db_.reset();
    DB* db = nullptr;
    Status s = DB::Open(options_, kDbPath, &db);
    ASSERT_TRUE(s.ok()) << s.ToString();
    db_.reset(db);
  }

  std::vector<uint64_t> LiveSstNumbers() {
    std::vector<std::string> paths;
    EXPECT_TRUE(db_->GetLiveSstFiles(&paths).ok());
    std::vector<uint64_t> numbers;
    for (const std::string& path : paths) {
      numbers.push_back(
          strtoull(path.c_str() + path.rfind('/') + 1, nullptr, 10));
    }
    std::sort(numbers.begin(), numbers.end());
    return numbers;
  }

  std::string FilesAtL0() {
    std::string n;
    EXPECT_TRUE(db_->GetProperty("shield.num-files-at-level0", &n));
    return n;
  }

  void ExpectRanOnWorker() {
    if (GetParam()) {
      EXPECT_GT(worker_->jobs_run(), 0u);
    }
  }

  Options options_;
  std::unique_ptr<RemoteCompactionWorker> worker_;
};

// The other L0 files count as data below an in-place L0 job: rotating
// the newest file must keep its tombstone over an older L0 value.
TEST_P(RotationJobTest, RotatingL0TombstoneKeepsOlderValueDeleted) {
  OpenAtL0(Options().target_file_size_base);
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "old").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "k").ok());
  ASSERT_TRUE(db_->Flush().ok());
  const std::vector<uint64_t> numbers = LiveSstNumbers();
  ASSERT_EQ(2u, numbers.size());
  ASSERT_EQ("2", FilesAtL0());

  // Plan only the newest file (the tombstone), as a bounded pass that
  // persisted it would.
  RotationManifest manifest;
  manifest.rotation_id = 1;
  manifest.pending.push_back(numbers.back());
  ASSERT_TRUE(manifest.Save(env_.get(), kDbPath).ok());
  RotateResult result;
  Status s = db_->RotateDeks(RotateOptions(), &result);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(1u, result.files_rotated);
  ExpectRanOnWorker();

  std::string value;
  EXPECT_TRUE(db_->Get(ReadOptions(), "k", &value).IsNotFound()) << value;
  Reopen();
  EXPECT_TRUE(db_->Get(ReadOptions(), "k", &value).IsNotFound()) << value;
}

// One file in gives one file out, even past target_file_size_base.
TEST_P(RotationJobTest, RotatingLargeL0FileKeepsFileCount) {
  OpenAtL0(/*target_file_size_base=*/4 * 1024);
  FillAndFlush(0, 100);
  FillAndFlush(100, 100);
  ASSERT_EQ("2", FilesAtL0());
  for (uint64_t number : LiveSstNumbers()) {
    uint64_t size = 0;
    ASSERT_TRUE(
        env_->GetFileSize(TableFileName(kDbPath, number), &size).ok());
    ASSERT_GT(size, 2 * options_.target_file_size_base);
  }
  const std::set<std::string> before = SstDekIds(env_.get());

  RotateResult result;
  Status s = db_->RotateDeks(RotateOptions(), &result);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(2u, result.files_rotated);
  ExpectRanOnWorker();
  EXPECT_EQ("2", FilesAtL0());
  ExpectDeksDeleted(before);
  VerifyAllKeys(db_.get());
}

INSTANTIATE_TEST_SUITE_P(LocalAndOffloaded, RotationJobTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Offloaded" : "Local";
                         });

// --- Backup / restore -------------------------------------------------------

class BackupTest : public ::testing::Test {
 protected:
  BackupTest() : env_(NewMemEnv()) {
    SimKdsOptions kopts;
    kopts.request_latency_us = 0;
    kopts.require_authorization = true;
    kds_ = std::make_shared<SimKds>(kopts);
    kds_->AuthorizeServer("source");
    kds_->AuthorizeServer("target");
  }

  Options MakeOptions(const std::string& server_id) {
    Options options;
    options.env = env_.get();
    options.write_buffer_size = 32 * 1024;
    options.encryption.mode = EncryptionMode::kShield;
    options.encryption.kds = kds_;
    options.encryption.server_id = server_id;
    return options;
  }

  std::unique_ptr<Env> env_;
  std::shared_ptr<SimKds> kds_;
  std::map<std::string, std::string> shadow_;
};

TEST_F(BackupTest, RestoreToNewIdentityAfterSourceRevoked) {
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(MakeOptions("source"), "/src", &raw).ok());
  std::unique_ptr<DB> db(raw);
  WriteOptions wopts;
  for (int i = 0; i < 500; i++) {
    char key[32];
    snprintf(key, sizeof(key), "key-%06d", i);
    const std::string value = "value-" + std::to_string(i * i);
    ASSERT_TRUE(db->Put(wopts, key, value).ok());
    shadow_[key] = value;
  }
  ASSERT_TRUE(db->Flush().ok());

  BackupOptions bopts;
  bopts.target_server_id = "target";
  Status s = db->CreateBackup("/backup", bopts);
  ASSERT_TRUE(s.ok()) << s.ToString();
  db.reset();

  // The breach response: the source identity is revoked after the
  // backup is taken. Restore must not depend on it.
  kds_->RevokeServer("source");
  Dek probe;
  EXPECT_TRUE(kds_->GetDek("source", DekId::Generate(), &probe)
                  .IsPermissionDenied());

  Options target_options = MakeOptions("target");
  RestoreOptions ropts;
  ASSERT_TRUE(
      DB::VerifyBackup(target_options, "/backup", ropts).ok());
  s = DB::RestoreBackup(target_options, "/backup", "/restored", ropts);
  ASSERT_TRUE(s.ok()) << s.ToString();

  ASSERT_TRUE(DB::Open(target_options, "/restored", &raw).ok());
  db.reset(raw);
  ASSERT_TRUE(db->VerifyIntegrity().ok());
  ReadOptions read_opts;
  for (const auto& [key, expected] : shadow_) {
    std::string value;
    ASSERT_TRUE(db->Get(read_opts, key, &value).ok()) << key;
    EXPECT_EQ(expected, value);
  }
}

TEST_F(BackupTest, SecondBackupIntoSameDirRefused) {
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(MakeOptions("source"), "/src", &raw).ok());
  std::unique_ptr<DB> db(raw);
  ASSERT_TRUE(db->Put(WriteOptions(), "k", "v").ok());
  ASSERT_TRUE(db->CreateBackup("/backup", BackupOptions()).ok());
  EXPECT_TRUE(
      db->CreateBackup("/backup", BackupOptions()).IsInvalidArgument());
}

TEST_F(BackupTest, RestoreOntoExistingDbRefused) {
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(MakeOptions("source"), "/src", &raw).ok());
  std::unique_ptr<DB> db(raw);
  ASSERT_TRUE(db->Put(WriteOptions(), "k", "v").ok());
  ASSERT_TRUE(db->CreateBackup("/backup", BackupOptions()).ok());
  db.reset();
  RestoreOptions ropts;
  EXPECT_TRUE(DB::RestoreBackup(MakeOptions("source"), "/backup", "/src",
                                ropts)
                  .IsInvalidArgument());
}

// Backups and dumps are the same signed bundle; both must fail closed.
class BundleTest : public BackupTest,
                   public ::testing::WithParamInterface<bool> {
 protected:
  bool dump() const { return GetParam(); }

  // Writes a bundle of `db` into `dir`, MAC'd under `hmac_key`.
  Status WriteBundle(DB* db, const std::string& dir,
                     const std::string& hmac_key) {
    if (dump()) {
      DumpOptions dopts;
      dopts.hmac_key = hmac_key;
      return db->DumpRange(dir, nullptr, nullptr, dopts);
    }
    BackupOptions bopts;
    bopts.hmac_key = hmac_key;
    return db->CreateBackup(dir, bopts);
  }

  Status VerifyBundle(const std::string& dir, const RestoreOptions& ropts) {
    return dump() ? DB::VerifyDump(MakeOptions("source"), dir, ropts)
                  : DB::VerifyBackup(MakeOptions("source"), dir, ropts);
  }

  Status RestoreBundle(const std::string& dir, const std::string& dbname,
                       const RestoreOptions& ropts) {
    return dump()
               ? DB::RestoreDump(MakeOptions("source"), dir, dbname, ropts)
               : DB::RestoreBackup(MakeOptions("source"), dir, dbname, ropts);
  }

  void WriteSourceBundle(const std::string& hmac_key) {
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(MakeOptions("source"), "/src", &raw).ok());
    std::unique_ptr<DB> db(raw);
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), "k" + std::to_string(i), "v").ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    Status s = WriteBundle(db.get(), "/bundle", hmac_key);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
};

TEST_P(BundleTest, TamperedBundleFailsVerificationBeforeAnyWrite) {
  WriteSourceBundle(RestoreOptions().hmac_key);

  // Flip one byte of a bundled SST.
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren("/bundle", &children).ok());
  std::string victim;
  for (const std::string& child : children) {
    if (child.size() > 4 && child.substr(child.size() - 4) == ".sst") {
      victim = "/bundle/" + child;
    }
  }
  ASSERT_FALSE(victim.empty());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env_.get(), victim, &contents).ok());
  contents[contents.size() / 2] ^= 0x01;
  ASSERT_TRUE(
      WriteStringToFile(env_.get(), contents, victim, /*sync=*/true).ok());

  RestoreOptions ropts;
  EXPECT_TRUE(VerifyBundle("/bundle", ropts).IsCorruption());
  EXPECT_TRUE(RestoreBundle("/bundle", "/restored", ropts).IsCorruption());
  // Nothing was written: the target directory must not exist as a DB.
  EXPECT_FALSE(env_->FileExists(CurrentFileName("/restored")));
}

TEST_P(BundleTest, WrongHmacKeyFailsVerification) {
  WriteSourceBundle("right-key");
  RestoreOptions ropts;
  ropts.hmac_key = "wrong-key";
  EXPECT_TRUE(VerifyBundle("/bundle", ropts).IsCorruption());
  EXPECT_TRUE(RestoreBundle("/bundle", "/restored", ropts).IsCorruption());
  EXPECT_FALSE(env_->FileExists(CurrentFileName("/restored")));
  ropts.hmac_key = "right-key";
  EXPECT_TRUE(VerifyBundle("/bundle", ropts).ok());
}

TEST_P(BundleTest, TamperedManifestFailsVerification) {
  WriteSourceBundle(RestoreOptions().hmac_key);
  const std::string manifest = BundleManifestPath(
      dump() ? kDumpBundle : kBackupBundle, "/bundle");
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env_.get(), manifest, &contents).ok());
  const size_t target = contents.find("target -\n");
  ASSERT_NE(std::string::npos, target);
  contents.replace(target, 8, "target x");
  ASSERT_TRUE(
      WriteStringToFile(env_.get(), contents, manifest, /*sync=*/true).ok());
  EXPECT_TRUE(VerifyBundle("/bundle", RestoreOptions()).IsCorruption());
}

INSTANTIATE_TEST_SUITE_P(BackupAndDump, BundleTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Dump" : "Backup";
                         });

// Manifest bytes pinned from an earlier build's backup and dump
// encoders: bundles already on disk must keep verifying.
std::vector<BundleFileEntry> GoldenEntries(const std::string& second_name) {
  std::vector<BundleFileEntry> entries(2);
  entries[0].name = "000007.sst";
  entries[0].size = 5;
  entries[0].hmac_hex =
      "cba04651b7eec3115394f5c004fc468810a1e21a98cc492fe2bd75cdfce3ce7b";
  entries[0].old_dek_hex = "00112233445566778899aabbccddeeff";
  entries[0].new_dek_hex = "ffeeddccbbaa99887766554433221100";
  entries[1].name = second_name;
  entries[1].size = 4;
  entries[1].hmac_hex =
      "201b6b1a3c5f9fc41694f0459ff880e3d7912d25ca788230c16544775ce8f4f8";
  return entries;
}

constexpr char kGoldenKey[] = "golden-key";

TEST(BundleGoldenTest, BackupManifestBytes) {
  const std::vector<BundleFileEntry> entries =
      GoldenEntries("CURRENT");
  EXPECT_EQ(
      "SHLDBAK1\nformat 1\ntarget target-1\n"
      "file 000007.sst 5 "
      "cba04651b7eec3115394f5c004fc468810a1e21a98cc492fe2bd75cdfce3ce7b "
      "00112233445566778899aabbccddeeff ffeeddccbbaa99887766554433221100\n"
      "file CURRENT 4 "
      "201b6b1a3c5f9fc41694f0459ff880e3d7912d25ca788230c16544775ce8f4f8 - -\n"
      "mac 7410ee91b03015369d1493c4e9246df76848b5268e4184709fc721c7ac9c4b2a\n",
      EncodeBundleManifest(kBackupBundle, "target-1", entries, kGoldenKey));
  EXPECT_EQ(
      "SHLDBAK1\nformat 1\ntarget -\n"
      "file 000007.sst 5 "
      "cba04651b7eec3115394f5c004fc468810a1e21a98cc492fe2bd75cdfce3ce7b "
      "00112233445566778899aabbccddeeff ffeeddccbbaa99887766554433221100\n"
      "file CURRENT 4 "
      "201b6b1a3c5f9fc41694f0459ff880e3d7912d25ca788230c16544775ce8f4f8 - -\n"
      "mac acf085f6bd5fa766dc25992bc8c07131a216698c28a225b402fa3c7375f60623\n",
      EncodeBundleManifest(kBackupBundle, "", entries, kGoldenKey));
}

TEST(BundleGoldenTest, DumpManifestBytes) {
  const std::vector<BundleFileEntry> entries =
      GoldenEntries("000008.sst");
  EXPECT_EQ(
      "SHLDDMP1\nformat 1\ntarget target-1\n"
      "file 000007.sst 5 "
      "cba04651b7eec3115394f5c004fc468810a1e21a98cc492fe2bd75cdfce3ce7b "
      "00112233445566778899aabbccddeeff ffeeddccbbaa99887766554433221100\n"
      "file 000008.sst 4 "
      "201b6b1a3c5f9fc41694f0459ff880e3d7912d25ca788230c16544775ce8f4f8 - -\n"
      "mac 64e1eca162463efee2b2e1c99961d3638ade3c5aa9632f7398b1a95ae9c55582\n",
      EncodeBundleManifest(kDumpBundle, "target-1", entries, kGoldenKey));
  EXPECT_EQ(
      "SHLDDMP1\nformat 1\ntarget -\n"
      "file 000007.sst 5 "
      "cba04651b7eec3115394f5c004fc468810a1e21a98cc492fe2bd75cdfce3ce7b "
      "00112233445566778899aabbccddeeff ffeeddccbbaa99887766554433221100\n"
      "file 000008.sst 4 "
      "201b6b1a3c5f9fc41694f0459ff880e3d7912d25ca788230c16544775ce8f4f8 - -\n"
      "mac a26d8fac41d2cdd9eba826953fa2e5b7b8b4186bba49aa59576d536a8eb1f047\n",
      EncodeBundleManifest(kDumpBundle, "", entries, kGoldenKey));
}

// A bundle laid out with the golden manifest verifies, under its own
// kind only. The files' tags are HMACs of "alpha" and "beta".
TEST(BundleGoldenTest, GoldenBundlesVerify) {
  std::unique_ptr<Env> env(NewMemEnv());
  Options options;
  options.env = env.get();
  RestoreOptions ropts;
  ropts.hmac_key = kGoldenKey;
  for (const BundleKind* kind : {&kBackupBundle, &kDumpBundle}) {
    const bool dump = kind == &kDumpBundle;
    const std::string dir = dump ? "/dump" : "/backup";
    const std::vector<BundleFileEntry> entries =
        GoldenEntries(dump ? "000008.sst" : "CURRENT");
    ASSERT_TRUE(env->CreateDirIfMissing(dir).ok());
    ASSERT_TRUE(WriteStringToFile(env.get(), "alpha",
                                  dir + "/" + entries[0].name, true)
                    .ok());
    ASSERT_TRUE(WriteStringToFile(env.get(), "beta",
                                  dir + "/" + entries[1].name, true)
                    .ok());
    ASSERT_TRUE(WriteStringToFile(
                    env.get(),
                    EncodeBundleManifest(*kind, "target-1", entries,
                                         kGoldenKey),
                    BundleManifestPath(*kind, dir), true)
                    .ok());
  }
  EXPECT_TRUE(DB::VerifyBackup(options, "/backup", ropts).ok());
  EXPECT_TRUE(DB::VerifyDump(options, "/dump", ropts).ok());
  // Each kind checks its own magic and manifest name.
  ASSERT_TRUE(env->RenameFile("/dump/DUMP_MANIFEST", "/dump/BACKUP_MANIFEST")
                  .ok());
  EXPECT_TRUE(DB::VerifyBackup(options, "/dump", ropts).IsCorruption());
}

}  // namespace
}  // namespace shield
