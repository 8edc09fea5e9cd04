// Read-only replica catch-up consistency: a replica calling
// TryCatchUp() while the writer is mid-flush / mid-batch — and while
// the storage layer is injecting transient faults — must never observe
// a partially durable version: a WriteBatch is visible all-or-nothing,
// and a manifest mid-rewrite never yields a mixed file set. The file
// leases that keep a replica's view readable while the writer flushes
// and compacts, and their release on close and on expiry, are tested
// here too.

#include <atomic>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "env/fault_injection_env.h"
#include "gtest/gtest.h"
#include "kds/local_kds.h"
#include "lsm/db.h"
#include "lsm/file_lease.h"
#include "lsm/file_names.h"
#include "lsm/iterator.h"
#include "lsm/write_batch.h"
#include "shield/file_crypto.h"
#include "util/clock.h"
#include "util/statistics.h"

namespace shield {
namespace {

constexpr int kKeysPerGeneration = 24;

std::string GenKey(int i) { return "gen-key-" + std::to_string(i); }
std::string GenValue(int g) {
  return "generation-" + std::to_string(g) + std::string(32, 'p');
}

class ReplicaCatchupTest : public ::testing::Test {
 protected:
  ReplicaCatchupTest() : base_(NewMemEnv()) {
    FaultInjectionOptions fopts;
    fopts.seed = 71;
    fault_env_ = std::make_unique<FaultInjectionEnv>(base_.get(), fopts);
    fault_env_->SetFaultsEnabled(false);
  }

  Options DbOptions() {
    Options options;
    options.env = fault_env_.get();
    options.write_buffer_size = 8 * 1024;
    if (shield_) {
      options.encryption.mode = EncryptionMode::kShield;
      options.encryption.kds = kds_;
    }
    return options;
  }

  void OpenWriterAndReplica() {
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(DbOptions(), "/catchup", &raw).ok());
    writer_.reset(raw);
    ASSERT_TRUE(writer_->Flush().ok());  // publish an initial manifest
    raw = nullptr;
    Options replica_options = DbOptions();
    replica_options.node_name = "replica";
    replica_options.statistics = replica_statistics_;
    ASSERT_TRUE(DB::OpenReadOnly(replica_options, "/catchup", &raw).ok());
    replica_.reset(raw);
  }

  /// Writes one atomic generation: all keys move to generation `g` in
  /// a single WriteBatch (one WAL record).
  void WriteGeneration(int g) {
    WriteBatch batch;
    for (int i = 0; i < kKeysPerGeneration; i++) {
      batch.Put(GenKey(i), GenValue(g));
    }
    ASSERT_TRUE(writer_->Write(WriteOptions(), &batch).ok());
  }

  /// Scans the replica's generation keys. Fails the test if the view
  /// is torn (some keys on one generation, some on another). Returns
  /// the observed generation value, or "" when no keys are visible.
  std::string ObservedGeneration() {
    std::map<std::string, std::string> seen;
    std::unique_ptr<Iterator> it(replica_->NewIterator(ReadOptions()));
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      const std::string key = it->key().ToString();
      if (key.rfind("gen-key-", 0) == 0) {
        seen[key] = it->value().ToString();
      }
    }
    EXPECT_TRUE(it->status().ok()) << it->status().ToString();
    if (seen.empty()) {
      return "";
    }
    // All-or-nothing: every key present, every value identical.
    EXPECT_EQ(static_cast<size_t>(kKeysPerGeneration), seen.size())
        << "replica observed a partial generation";
    const std::string& first = seen.begin()->second;
    for (const auto& kv : seen) {
      EXPECT_EQ(first, kv.second)
          << "replica observed a torn generation at " << kv.first;
    }
    return first;
  }

  /// Opens the writer with automatic compaction out of the way and
  /// gives it `files` level-0 SSTs of kKeysPerGeneration keys each
  /// (generation g holds "file-<g>-key-<i>").
  void OpenWriterWithL0Files(int files) {
    Options options = DbOptions();
    options.level0_file_num_compaction_trigger = 100;
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(options, "/catchup", &raw).ok());
    writer_.reset(raw);
    for (int g = 0; g < files; g++) {
      for (int i = 0; i < kKeysPerGeneration; i++) {
        ASSERT_TRUE(writer_->Put(WriteOptions(), FileKey(g, i), GenValue(g))
                        .ok());
      }
      ASSERT_TRUE(writer_->Flush().ok());
    }
  }

  void OpenReplica(Env* env) {
    Options options = DbOptions();
    options.env = env;
    DB* raw = nullptr;
    ASSERT_TRUE(DB::OpenReadOnly(options, "/catchup", &raw).ok());
    replica_.reset(raw);
  }

  static std::string FileKey(int g, int i) {
    return "file-" + std::to_string(g) + "-key-" + std::to_string(i);
  }

  /// Names in the DB directory ending in `suffix`.
  std::set<std::string> ListFiles(const std::string& suffix) {
    std::vector<std::string> children;
    EXPECT_TRUE(base_->GetChildren("/catchup", &children).ok());
    std::set<std::string> out;
    for (const std::string& c : children) {
      if (c.size() >= suffix.size() &&
          c.compare(c.size() - suffix.size(), suffix.size(), suffix) == 0) {
        out.insert(c);
      }
    }
    return out;
  }

  int CountLeases() {
    int leases = 0;
    for (const std::string& f : ListFiles("")) {
      leases += f.rfind("LEASE-", 0) == 0 ? 1 : 0;
    }
    return leases;
  }

  /// Runs a writer flush, which ends in a garbage-collection pass.
  void RunWriterGc() {
    ASSERT_TRUE(writer_->Put(WriteOptions(), "gc-trigger", "x").ok());
    ASSERT_TRUE(writer_->Flush().ok());
    writer_->WaitForIdle();
  }

  /// The writer compacts away the level-0 files of the replica's
  /// installed view; the replica must still read every key of it.
  void CheckCompactionKeepsReplicaView() {
    constexpr int kFiles = 3;
    OpenWriterWithL0Files(kFiles);
    OpenReplica(fault_env_.get());
    ASSERT_EQ(static_cast<size_t>(kFiles), ListFiles(".sst").size());

    ASSERT_TRUE(writer_->CompactRange(nullptr, nullptr).ok());
    writer_->WaitForIdle();
    std::string files;
    ASSERT_TRUE(writer_->GetProperty("shield.num-files-at-level0", &files));
    ASSERT_EQ("0", files) << "the compaction must have replaced the L0 files";

    std::map<std::string, std::string> seen;
    std::unique_ptr<Iterator> it(replica_->NewIterator(ReadOptions()));
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      seen[it->key().ToString()] = it->value().ToString();
    }
    ASSERT_TRUE(it->status().ok()) << it->status().ToString();
    it.reset();
    for (int g = 0; g < kFiles; g++) {
      for (int i = 0; i < kKeysPerGeneration; i++) {
        auto found = seen.find(FileKey(g, i));
        ASSERT_NE(found, seen.end()) << "replica lost " << FileKey(g, i);
        EXPECT_EQ(GenValue(g), found->second);
      }
    }
  }

  bool shield_ = false;
  // Statistics of the replica OpenWriterAndReplica opens, if any.
  std::shared_ptr<Statistics> replica_statistics_;
  std::shared_ptr<LocalKds> kds_ = std::make_shared<LocalKds>();
  std::unique_ptr<Env> base_;
  std::unique_ptr<FaultInjectionEnv> fault_env_;
  std::unique_ptr<DB> writer_;
  std::unique_ptr<DB> replica_;
};

/// Runs `hook` once, inside the first GetChildren call after Arm().
class GetChildrenHookEnv : public EnvWrapper {
 public:
  explicit GetChildrenHookEnv(Env* target) : EnvWrapper(target) {}

  void Arm(std::function<void()> hook) { hook_ = std::move(hook); }
  bool fired() const { return fired_; }

  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    if (hook_) {
      std::function<void()> hook = std::move(hook_);
      hook_ = nullptr;
      hook();
      fired_ = true;
    }
    return EnvWrapper::GetChildren(dir, result);
  }

 private:
  std::function<void()> hook_;
  bool fired_ = false;
};

/// Once armed, every sequential read of a WAL fails with an IOError,
/// which the log reader does not retry.
class FailingWalReadEnv : public EnvWrapper {
 public:
  explicit FailingWalReadEnv(Env* target) : EnvWrapper(target) {}

  void SetFailing(bool failing) { failing_ = failing; }

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    Status s = EnvWrapper::NewSequentialFile(fname, result);
    if (s.ok() && failing_ && fname.size() > 4 &&
        fname.compare(fname.size() - 4, 4, ".log") == 0) {
      *result = std::make_unique<FailingFile>(std::move(*result));
    }
    return s;
  }

 private:
  class FailingFile : public SequentialFile {
   public:
    explicit FailingFile(std::unique_ptr<SequentialFile> base)
        : base_(std::move(base)) {}
    Status Read(size_t, Slice* result, char*) override {
      *result = Slice();
      return Status::IOError("injected WAL read error");
    }
    Status Skip(uint64_t n) override { return base_->Skip(n); }

   private:
    std::unique_ptr<SequentialFile> base_;
  };

  bool failing_ = false;
};

/// The real clock shifted forward by a settable amount.
class ShiftedClock : public Clock {
 public:
  uint64_t NowMicros() override {
    return Clock::Real()->NowMicros() + shift_.load();
  }
  void SleepForMicros(uint64_t micros) override {
    Clock::Real()->SleepForMicros(micros);
  }
  void Advance(uint64_t micros) { shift_.fetch_add(micros); }

 private:
  std::atomic<uint64_t> shift_{0};
};

// Interleaved single-threaded schedule with transient storage faults
// active during every catch-up: the replica's manifest + WAL re-read
// hits injected errors, and whenever TryCatchUp does report success,
// the state it exposes must be a complete generation.
TEST_F(ReplicaCatchupTest, FaultedCatchUpNeverObservesPartialGeneration) {
  OpenWriterAndReplica();

  FaultInjectionOptions faulty;
  faulty.seed = 71;
  faulty.read_error_probability = 0.25;
  faulty.metadata_error_probability = 0.15;
  faulty.permanent_error_ratio = 0.0;

  int catchup_successes = 0;
  int catchup_failures = 0;
  for (int g = 1; g <= 30; g++) {
    WriteGeneration(g);
    if (g % 3 == 0) {
      // The flush publishes a new SST + manifest edit; catch-up right
      // after exercises the manifest-catch-up path specifically.
      ASSERT_TRUE(writer_->Flush().ok());
    }

    fault_env_->SetOptions(faulty);
    fault_env_->SetFaultsEnabled(true);
    Status s;
    for (int attempt = 0; attempt < 50; attempt++) {
      s = replica_->TryCatchUp();
      if (s.ok()) {
        break;
      }
      // A failed catch-up must leave the previous consistent view
      // intact — check the invariant on every failure too (with
      // injection paused so the check itself reads cleanly).
      fault_env_->SetFaultsEnabled(false);
      ObservedGeneration();
      fault_env_->SetFaultsEnabled(true);
      catchup_failures++;
    }
    fault_env_->SetFaultsEnabled(false);
    if (!s.ok()) {
      // Clean retry must succeed once faults stop.
      s = replica_->TryCatchUp();
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
    catchup_successes++;

    const std::string observed = ObservedGeneration();
    // After a successful catch-up the replica replays the writer's
    // WAL, so it is fully current, not just durable-as-of-last-flush.
    EXPECT_EQ(GenValue(g), observed);
  }
  EXPECT_EQ(30, catchup_successes);
  // The fault schedule must actually have bitten at least once for
  // this test to mean anything.
  EXPECT_GT(catchup_failures, 0);
}

// True concurrency: the writer keeps writing batches and flushing on
// its own thread while the replica catches up as fast as it can. Any
// successful catch-up, sampled at any point relative to an in-flight
// flush, must expose an atomic generation.
TEST_F(ReplicaCatchupTest, ConcurrentCatchUpSeesOnlyAtomicGenerations) {
  OpenWriterAndReplica();

  constexpr int kGenerations = 120;
  std::atomic<bool> writer_done{false};
  std::thread writer_thread([&] {
    for (int g = 1; g <= kGenerations; g++) {
      WriteGeneration(g);
      if (g % 5 == 0) {
        EXPECT_TRUE(writer_->Flush().ok());
      }
    }
    writer_done.store(true);
  });

  int views = 0;
  while (!writer_done.load()) {
    Status s = replica_->TryCatchUp();
    if (s.ok()) {
      ObservedGeneration();  // asserts atomicity internally
      views++;
    }
    std::this_thread::yield();
  }
  writer_thread.join();

  // Final catch-up on the quiesced writer must land on the last
  // generation exactly.
  ASSERT_TRUE(replica_->TryCatchUp().ok());
  EXPECT_EQ(GenValue(kGenerations), ObservedGeneration());
  EXPECT_GT(views, 0);
}

// The catch-up lag properties quantify how far a replica trails the
// shared manifest: zero on a caught-up replica, nonzero once the
// writer publishes new version edits, and back to zero after the next
// successful TryCatchUp (the same signal the replica.catchup health
// detector and the shield_replica_catchup_lag_* gauges consume). The
// gauges in the replica's `shield.metrics` probe the lag when the
// scrape is taken, so they report it before any property read and
// equal the properties after one.
TEST_F(ReplicaCatchupTest, LagPropertiesDrainToZeroAfterCatchUp) {
  replica_statistics_ = CreateDBStatistics();
  OpenWriterAndReplica();

  auto lag = [&](const char* prop) {
    std::string v;
    EXPECT_TRUE(replica_->GetProperty(prop, &v)) << prop;
    return v.empty() ? 0ull : std::stoull(v);
  };
  auto gauge = [&](const std::string& family) {
    std::string text;
    EXPECT_TRUE(replica_->GetProperty("shield.metrics", &text));
    const std::string sample = family + "{node=\"replica\"} ";
    const size_t at = text.find("\n" + sample);
    EXPECT_NE(std::string::npos, at) << family;
    return at == std::string::npos
               ? ~0ull
               : std::stoull(text.substr(at + 1 + sample.size()));
  };
  // Returns the generation lag after checking both gauges against the
  // properties.
  auto checked_lag = [&] {
    const uint64_t generations = lag("shield.replica.catchup-lag-generations");
    const uint64_t bytes = lag("shield.replica.catchup-lag-bytes");
    EXPECT_EQ(generations, gauge("shield_replica_catchup_lag_generations"));
    EXPECT_EQ(bytes, gauge("shield_replica_catchup_lag_bytes"));
    EXPECT_EQ(generations == 0, bytes == 0);
    return generations;
  };

  ASSERT_TRUE(replica_->TryCatchUp().ok());
  EXPECT_EQ(0u, checked_lag());

  // A flush appends version edits past the replica's applied prefix.
  // The first scrape after it already sees the lag.
  WriteGeneration(1);
  ASSERT_TRUE(writer_->Flush().ok());
  EXPECT_GT(gauge("shield_replica_catchup_lag_generations"), 0u);
  EXPECT_GT(gauge("shield_replica_catchup_lag_bytes"), 0u);
  EXPECT_GT(checked_lag(), 0u);

  ASSERT_TRUE(replica_->TryCatchUp().ok());
  EXPECT_EQ(0u, checked_lag());
  EXPECT_EQ(GenValue(1), ObservedGeneration());

  // The writer's own probe never reports lag: the properties are
  // replica-only by construction.
  std::string v;
  ASSERT_TRUE(writer_->GetProperty("shield.replica.catchup-lag-bytes", &v));
  EXPECT_EQ("0", v);
}

// The writer compacts away level-0 files that the replica's installed
// view still lists. The replica must still read its whole view: the
// writer keeps every file a live lease pins.
TEST_F(ReplicaCatchupTest, WriterCompactionKeepsFilesOfReplicaView) {
  CheckCompactionKeepsReplicaView();
}

// The same under SHIELD, where deleting a file also destroys its DEK:
// the lease must keep the key along with the file.
TEST_F(ReplicaCatchupTest, WriterCompactionKeepsDeksOfReplicaView) {
  shield_ = true;
  CheckCompactionKeepsReplicaView();
}

// An iterator opened on the replica before a catch-up keeps reading
// the view it was opened on. The writer rewrites every file of that
// view while the replica catches up past it; the iterator must still
// reach files it opens only after the catch-up.
TEST_F(ReplicaCatchupTest, IteratorOpenAcrossCatchUpKeepsItsFiles) {
  Options options = DbOptions();
  options.target_file_size_base = 4 * 1024;  // many small bottom files
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/catchup", &raw).ok());
  writer_.reset(raw);
  constexpr int kKeys = 600;
  auto key = [](int i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%05d", i);
    return std::string(buf);
  };
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(
        writer_->Put(WriteOptions(), key(i), std::string(64, 'v')).ok());
  }
  ASSERT_TRUE(writer_->CompactRange(nullptr, nullptr).ok());
  writer_->WaitForIdle();
  OpenReplica(fault_env_.get());

  std::unique_ptr<Iterator> it(replica_->NewIterator(ReadOptions()));
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());

  // Rewrite every file (manual compaction also rotates DEKs), move the
  // replica past the old view, and let the writer's GC run.
  ASSERT_TRUE(writer_->CompactRange(nullptr, nullptr).ok());
  ASSERT_TRUE(replica_->TryCatchUp().ok());
  RunWriterGc();

  int seen = 0;
  for (; it->Valid(); it->Next()) {
    EXPECT_EQ(key(seen), it->key().ToString());
    seen++;
  }
  EXPECT_TRUE(it->status().ok()) << it->status().ToString();
  EXPECT_EQ(kKeys, seen);
  it.reset();

  // Once the iterator is gone, the next catch-up lets the old view go.
  const std::set<std::string> before = ListFiles(".sst");
  ASSERT_TRUE(replica_->TryCatchUp().ok());
  RunWriterGc();
  EXPECT_LT(ListFiles(".sst").size(), before.size());
}

// The writer flushes (rolling to a new WAL and retiring the old one)
// between the replica's manifest read and its WAL listing. Catch-up
// may fail, but if it reports success its view holds every write the
// writer acknowledged.
TEST_F(ReplicaCatchupTest, FlushDuringWalListingNeverDropsAcknowledgedWrite) {
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(DbOptions(), "/catchup", &raw).ok());
  writer_.reset(raw);
  ASSERT_TRUE(writer_->Flush().ok());
  GetChildrenHookEnv hook_env(fault_env_.get());
  OpenReplica(&hook_env);

  WriteOptions synced;
  synced.sync = true;
  ASSERT_TRUE(writer_->Put(synced, "acknowledged", "value").ok());
  hook_env.Arm([&] {
    EXPECT_TRUE(writer_->Flush().ok());
    writer_->WaitForIdle();
  });
  Status s = replica_->TryCatchUp();
  ASSERT_TRUE(hook_env.fired());
  if (s.ok()) {
    std::string value;
    s = replica_->Get(ReadOptions(), "acknowledged", &value);
    ASSERT_TRUE(s.ok()) << "catch-up succeeded without an acknowledged "
                           "write: "
                        << s.ToString();
    EXPECT_EQ("value", value);
  }
  replica_.reset();
}

// A WAL read error the log reader cannot retry away fails the
// catch-up: the replica keeps its previous view instead of installing
// one that silently lacks acknowledged writes.
TEST_F(ReplicaCatchupTest, WalReadErrorFailsCatchUpAndKeepsOldView) {
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(DbOptions(), "/catchup", &raw).ok());
  writer_.reset(raw);
  ASSERT_TRUE(writer_->Flush().ok());
  FailingWalReadEnv failing_env(fault_env_.get());
  OpenReplica(&failing_env);

  WriteGeneration(1);
  ASSERT_TRUE(replica_->TryCatchUp().ok());
  ASSERT_EQ(GenValue(1), ObservedGeneration());

  WriteGeneration(2);
  failing_env.SetFailing(true);
  Status s = replica_->TryCatchUp();
  failing_env.SetFailing(false);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(GenValue(1), ObservedGeneration());

  ASSERT_TRUE(replica_->TryCatchUp().ok());
  EXPECT_EQ(GenValue(2), ObservedGeneration());
  replica_.reset();
}

// Files the lease kept alive go as soon as the replica closes (closing
// removes its lease): a read-only instance in the writer's process runs
// the writer's GC when it releases files, with no writer activity.
TEST_F(ReplicaCatchupTest, ClosingReplicaReleasesDeferredFiles) {
  OpenWriterWithL0Files(3);
  OpenReplica(fault_env_.get());
  const std::set<std::string> l0_files = ListFiles(".sst");
  ASSERT_EQ(3u, l0_files.size());
  ASSERT_EQ(1, CountLeases());

  ASSERT_TRUE(writer_->CompactRange(nullptr, nullptr).ok());
  RunWriterGc();
  for (const std::string& f : l0_files) {
    EXPECT_EQ(1u, ListFiles(".sst").count(f)) << f << " deleted under lease";
  }

  replica_.reset();
  EXPECT_EQ(0, CountLeases());
  for (const std::string& f : l0_files) {
    EXPECT_EQ(0u, ListFiles(".sst").count(f)) << f << " outlived its lease";
  }
}

// A catch-up that moves the lease past the compaction releases the
// files the old view needed, again with no writer activity. Under
// SHIELD their DEKs go with them.
TEST_F(ReplicaCatchupTest, CatchUpReleasesDeferredFiles) {
  shield_ = true;
  OpenWriterWithL0Files(3);
  OpenReplica(fault_env_.get());
  const std::set<std::string> l0_files = ListFiles(".sst");
  ASSERT_EQ(3u, l0_files.size());

  std::vector<DekId> l0_deks;
  for (const std::string& f : l0_files) {
    ShieldFileHeader header;
    ASSERT_TRUE(
        ReadShieldFileHeader(base_.get(), "/catchup/" + f, &header).ok());
    l0_deks.push_back(header.dek_id);
  }
  auto dek_resolves = [&](const DekId& id) {
    Dek dek;
    return kds_->GetDek(DbOptions().encryption.server_id, id, &dek).ok();
  };

  ASSERT_TRUE(writer_->CompactRange(nullptr, nullptr).ok());
  writer_->WaitForIdle();
  for (const std::string& f : l0_files) {
    EXPECT_EQ(1u, ListFiles(".sst").count(f)) << f << " deleted under lease";
  }
  for (const DekId& id : l0_deks) {
    EXPECT_TRUE(dek_resolves(id)) << "DEK destroyed under lease";
  }

  ASSERT_TRUE(replica_->TryCatchUp().ok());
  for (const std::string& f : l0_files) {
    EXPECT_EQ(0u, ListFiles(".sst").count(f)) << f << " outlived its lease";
  }
  for (const DekId& id : l0_deks) {
    EXPECT_FALSE(dek_resolves(id)) << "DEK outlived its file";
  }
  std::string value;
  EXPECT_TRUE(replica_->Get(ReadOptions(), FileKey(0, 0), &value).ok());
  EXPECT_EQ(GenValue(0), value);
}

// A lease temp file whose instance died before renaming it is removed
// once the writer has seen it for longer than its TTL.
TEST_F(ReplicaCatchupTest, StaleLeaseTempFileIsRemoved) {
  ShiftedClock clock;
  ScopedClockOverride clock_override(&clock);
  OpenWriterWithL0Files(1);
  const std::string temp = LeaseFileName("/catchup", 0xabc) + ".tmp";
  ASSERT_TRUE(WriteStringToFile(base_.get(), "torn", temp, true).ok());

  RunWriterGc();
  EXPECT_TRUE(base_->FileExists(temp)) << "a fresh temp file may be in use";
  clock.Advance(kFileLeaseTtlMicros / 2);
  RunWriterGc();
  EXPECT_TRUE(base_->FileExists(temp)) << "a fresh temp file may be in use";

  clock.Advance(kFileLeaseTtlMicros);
  RunWriterGc();
  EXPECT_FALSE(base_->FileExists(temp)) << "the stale temp file was kept";
  writer_.reset();
}

// A lease that outlives its TTL (a replica that died without closing)
// stops pinning: the writer's next GC removes it and deletes the
// files it kept.
TEST_F(ReplicaCatchupTest, ExpiredLeaseReleasesDeferredFiles) {
  ShiftedClock clock;
  ScopedClockOverride clock_override(&clock);
  OpenWriterWithL0Files(3);
  OpenReplica(fault_env_.get());
  const std::set<std::string> l0_files = ListFiles(".sst");
  ASSERT_EQ(3u, l0_files.size());

  ASSERT_TRUE(writer_->CompactRange(nullptr, nullptr).ok());
  RunWriterGc();
  for (const std::string& f : l0_files) {
    EXPECT_EQ(1u, ListFiles(".sst").count(f)) << f << " deleted under lease";
  }

  clock.Advance(kFileLeaseTtlMicros + 1000 * 1000);
  RunWriterGc();
  for (const std::string& f : l0_files) {
    EXPECT_EQ(0u, ListFiles(".sst").count(f)) << f << " outlived its lease";
  }
  EXPECT_EQ(0, CountLeases()) << "the expired lease was not removed";

  // Shut down under the shifted clock that timed the DBs' work.
  replica_.reset();
  writer_.reset();
}

}  // namespace
}  // namespace shield
