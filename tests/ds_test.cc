#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "ds/compaction_worker.h"
#include "ds/network_sim.h"
#include "ds/storage_service.h"
#include "gtest/gtest.h"
#include "kds/sim_kds.h"
#include "lsm/db.h"
#include "lsm/sst_reader.h"
#include "lsm/table_format.h"
#include "sim/sim_clock.h"
#include "test_util.h"
#include "util/clock.h"
#include "util/random.h"

namespace shield {
namespace {

// --- NetworkSimulator --------------------------------------------------------

TEST(NetworkSimTest, RttApplied) {
  NetworkSimOptions options;
  options.rtt_micros = 2000;
  options.bandwidth_bytes_per_sec = 1'000'000'000;
  NetworkSimulator net(options);

  const uint64_t t0 = NowMicros();
  net.SimulateTransfer(0, /*pay_rtt=*/true);
  EXPECT_GE(NowMicros() - t0, 1500u);
  EXPECT_EQ(1u, net.total_requests());
}

TEST(NetworkSimTest, BandwidthSerialization) {
  NetworkSimOptions options;
  options.rtt_micros = 0;
  options.bandwidth_bytes_per_sec = 10'000'000;  // 10 MB/s
  NetworkSimulator net(options);

  // 100 KB at 10 MB/s = 10ms.
  const uint64_t t0 = NowMicros();
  net.SimulateTransfer(100'000, /*pay_rtt=*/false);
  const uint64_t elapsed = NowMicros() - t0;
  EXPECT_GE(elapsed, 8000u);
  EXPECT_EQ(100'000u, net.total_bytes());
}

TEST(NetworkSimTest, RuntimeReconfiguration) {
  NetworkSimOptions options;
  options.rtt_micros = 0;
  options.bandwidth_bytes_per_sec = 1'000'000'000;
  NetworkSimulator net(options);
  net.set_rtt_micros(3000);
  EXPECT_EQ(3000u, net.rtt_micros());
  net.set_bandwidth_bytes_per_sec(0);  // clamped, no div-by-zero
  EXPECT_EQ(1u, net.bandwidth_bytes_per_sec());
}

// --- Partition windows (virtual time) ----------------------------------------
//
// These run on a SimClock so window arithmetic is exact: the simulator
// installs the clock process-wide, and the NetworkSimulator (built with
// clock = nullptr) picks it up through SystemClock().

class NetworkPartitionTest : public ::testing::Test {
 protected:
  NetworkPartitionTest() : override_(&clock_) {
    NetworkSimOptions options;
    options.rtt_micros = 0;
    options.bandwidth_bytes_per_sec = 1'000'000'000'000;
    net_ = std::make_unique<NetworkSimulator>(options);
  }

  sim::SimClock clock_;
  ScopedClockOverride override_;
  std::unique_ptr<NetworkSimulator> net_;
};

TEST_F(NetworkPartitionTest, TimedWindowHealsOnDeadline) {
  net_->StartPartitionFor(1000);
  EXPECT_TRUE(net_->partitioned());
  EXPECT_FALSE(net_->TryTransfer(10, false).ok());
  clock_.AdvanceBy(999);
  EXPECT_TRUE(net_->partitioned());
  clock_.AdvanceBy(2);
  EXPECT_FALSE(net_->partitioned());
  EXPECT_TRUE(net_->TryTransfer(10, false).ok());
}

TEST_F(NetworkPartitionTest, ShorterRearmNeverShortensActiveWindow) {
  // Regression test: re-arming used to overwrite the deadline, so a
  // short second window would heal the link early and sends queued
  // behind the first window slipped through before its deadline.
  net_->StartPartitionFor(1000);
  net_->StartPartitionFor(200);  // must NOT pull 1000 down to 200
  clock_.AdvanceBy(500);
  EXPECT_TRUE(net_->partitioned());
  EXPECT_FALSE(net_->TryTransfer(10, false).ok());
  clock_.AdvanceBy(600);  // past the original deadline
  EXPECT_FALSE(net_->partitioned());
}

TEST_F(NetworkPartitionTest, LongerRearmExtendsActiveWindow) {
  net_->StartPartitionFor(500);
  clock_.AdvanceBy(300);
  net_->StartPartitionFor(500);  // now until t=800
  clock_.AdvanceBy(300);         // t=600: original window would have healed
  EXPECT_TRUE(net_->partitioned());
  clock_.AdvanceBy(250);  // t=850
  EXPECT_FALSE(net_->partitioned());
}

TEST_F(NetworkPartitionTest, TimedRearmNeverDowngradesUnboundedPartition) {
  net_->StartPartition();  // unbounded: only HealPartition() ends it
  net_->StartPartitionFor(10);
  clock_.AdvanceBy(1'000'000);
  EXPECT_TRUE(net_->partitioned());
  EXPECT_FALSE(net_->TryTransfer(10, false).ok());
  net_->HealPartition();
  EXPECT_FALSE(net_->partitioned());
  EXPECT_TRUE(net_->TryTransfer(10, false).ok());
}

TEST_F(NetworkPartitionTest, HealThenRearmStartsAFreshWindow) {
  net_->StartPartitionFor(1000);
  net_->HealPartition();
  EXPECT_FALSE(net_->partitioned());
  // A stale (already-healed) window must not linger in the deadline.
  net_->StartPartitionFor(100);
  EXPECT_TRUE(net_->partitioned());
  clock_.AdvanceBy(150);
  EXPECT_FALSE(net_->partitioned());
}

// --- RemoteEnv over StorageService --------------------------------------------

class RemoteEnvTest : public ::testing::Test {
 protected:
  RemoteEnvTest() : backing_(NewMemEnv()) {
    NetworkSimOptions net;
    net.rtt_micros = 0;  // keep tests fast
    net.bandwidth_bytes_per_sec = 10ull << 30;
    service_ = std::make_unique<StorageService>(backing_.get(), net);
    remote_ = NewRemoteEnv(service_.get(), &client_stats_);
  }

  std::unique_ptr<Env> backing_;
  std::unique_ptr<StorageService> service_;
  IoStats client_stats_;
  std::unique_ptr<Env> remote_;
};

TEST_F(RemoteEnvTest, SharedNamespace) {
  ASSERT_TRUE(
      WriteStringToFile(remote_.get(), "remote data", "/shared/f", true).ok());
  // Visible from the storage server side and from another client.
  std::string contents;
  ASSERT_TRUE(
      ReadFileToString(service_->server_env(), "/shared/f", &contents).ok());
  EXPECT_EQ("remote data", contents);

  auto second_client = NewRemoteEnv(service_.get(), nullptr);
  contents.clear();
  ASSERT_TRUE(
      ReadFileToString(second_client.get(), "/shared/f", &contents).ok());
  EXPECT_EQ("remote data", contents);
}

TEST_F(RemoteEnvTest, TrafficAccounted) {
  ASSERT_TRUE(WriteStringToFile(remote_.get(), std::string(5000, 'x'),
                                "/d/000001.sst", false)
                  .ok());
  EXPECT_EQ(5000u, client_stats_.WriteBytes(FileKind::kSst));
  EXPECT_EQ(1u, client_stats_.WriteOps(FileKind::kSst));
  EXPECT_EQ(5000u, service_->media_stats()->WriteBytes(FileKind::kSst));
  EXPECT_EQ(5000u, service_->network()->total_bytes());
}

TEST_F(RemoteEnvTest, StatisticsSinkSeesFabricTraffic) {
  auto stats = CreateDBStatistics();
  service_->SetStatisticsSink(stats.get());
  ASSERT_TRUE(WriteStringToFile(remote_.get(), std::string(4096, 'y'),
                                "/d/000002.sst", false)
                  .ok());
  EXPECT_GE(stats->GetTickerCount(Tickers::kDsNetworkBytes), 4096u);
  EXPECT_GT(stats->GetTickerCount(Tickers::kDsNetworkRequests), 0u);
  // Server-side media I/O lands on the same registry's io.* tickers.
  EXPECT_GE(stats->GetTickerCount(Tickers::kIoSstWriteBytes), 4096u);
  service_->SetStatisticsSink(nullptr);
}

TEST_F(RemoteEnvTest, DbRunsOverRemoteStorage) {
  Options options;
  options.env = remote_.get();
  options.write_buffer_size = 64 * 1024;
  DB* raw_db = nullptr;
  ASSERT_TRUE(DB::Open(options, "/dsdb", &raw_db).ok());
  std::unique_ptr<DB> db(raw_db);

  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), "key" + std::to_string(i),
                        std::string(100, 'd'))
                    .ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), "key123", &value).ok());
  EXPECT_EQ(std::string(100, 'd'), value);
  EXPECT_GT(service_->network()->total_bytes(), 0u);
}

// --- Offloaded compaction -------------------------------------------------------

class OffloadTest : public ::testing::Test {
 protected:
  OffloadTest() : backing_(NewMemEnv()) {
    NetworkSimOptions net;
    net.rtt_micros = 0;
    net.bandwidth_bytes_per_sec = 10ull << 30;
    service_ = std::make_unique<StorageService>(backing_.get(), net);
    compute_env_ = NewRemoteEnv(service_.get(), nullptr);

    kds_ = std::make_shared<SimKds>(SimKdsOptions{
        .request_latency_us = 0,
        .one_time_provisioning = false,
        .require_authorization = true});
    kds_->AuthorizeServer("primary");
    kds_->AuthorizeServer("worker");
  }

  Options DbOptions() {
    Options options;
    options.env = compute_env_.get();
    options.write_buffer_size = 32 * 1024;
    options.encryption.mode = EncryptionMode::kShield;
    options.encryption.kds = kds_;
    options.encryption.server_id = "primary";
    return options;
  }

  // The worker runs on the storage server: by default on its direct
  // (no network) env.
  void StartWorker(const Options& db_options, Env* env = nullptr) {
    if (env == nullptr) {
      env = service_->server_env();
    }
    RemoteCompactionWorker::WorkerOptions worker_options;
    worker_options.env = env;
    worker_options.db_options = db_options;
    worker_options.db_options.env = env;
    worker_options.db_options.encryption.server_id = "worker";
    // The worker counts its KDS round trips apart from the primary's.
    worker_options.db_options.statistics = worker_stats_;
    worker_options.server_id = "worker";
    worker_ = std::make_unique<RemoteCompactionWorker>(worker_options);
  }

  std::unique_ptr<Env> backing_;
  std::unique_ptr<StorageService> service_;
  std::unique_ptr<Env> compute_env_;
  std::shared_ptr<SimKds> kds_;
  std::shared_ptr<Statistics> worker_stats_ = CreateDBStatistics();
  std::unique_ptr<RemoteCompactionWorker> worker_;
};

TEST_F(OffloadTest, CompactionRunsOnWorker) {
  Options options = DbOptions();
  StartWorker(options);
  options.compaction_service = worker_.get();

  DB* raw_db = nullptr;
  ASSERT_TRUE(DB::Open(options, "/dsdb", &raw_db).ok());
  std::unique_ptr<DB> db(raw_db);

  std::map<std::string, std::string> model;
  Random rnd(13);
  for (int i = 0; i < 4000; i++) {
    const std::string key = "key" + std::to_string(rnd.Uniform(1200));
    const std::string value = "value" + std::to_string(i) + std::string(80, 'o');
    model[key] = value;
    ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
  }
  ASSERT_TRUE(db->CompactRange(nullptr, nullptr).ok());
  db->WaitForIdle();

  EXPECT_GT(worker_->jobs_run(), 0u);
  // The worker resolved input DEKs + created output DEKs via the KDS.
  EXPECT_GT(worker_stats_->GetTickerCount(Tickers::kKdsRequests), 0u);

  // The primary reads the worker's outputs (resolving their DEK-IDs
  // through the KDS).
  for (const auto& [key, value] : model) {
    std::string got;
    ASSERT_TRUE(db->Get(ReadOptions(), key, &got).ok()) << key;
    EXPECT_EQ(value, got);
  }
}

TEST_F(OffloadTest, UnauthorizedWorkerFails) {
  Options options = DbOptions();
  // Keep background compaction out of the way so the revocation only
  // affects the manual compaction below.
  options.level0_file_num_compaction_trigger = 1000;
  StartWorker(options);
  options.compaction_service = worker_.get();

  DB* raw_db = nullptr;
  ASSERT_TRUE(DB::Open(options, "/dsdb", &raw_db).ok());
  std::unique_ptr<DB> db(raw_db);
  for (int i = 0; i < 4000; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), "key" + std::to_string(i % 500),
                        std::string(100, 'u'))
                    .ok());
  }
  // Breach detected: the KDS revokes the worker. The offloaded
  // compaction must fail — the worker can no longer resolve or create
  // DEKs.
  kds_->RevokeServer("worker");
  Status s = db->CompactRange(nullptr, nullptr);
  EXPECT_FALSE(s.ok());
}

TEST_F(OffloadTest, WorkerOnPlaintextDb) {
  // Offloaded compaction also works without encryption.
  Options options;
  options.env = compute_env_.get();
  options.write_buffer_size = 32 * 1024;
  RemoteCompactionWorker::WorkerOptions worker_options;
  worker_options.env = service_->server_env();
  worker_options.db_options = options;
  worker_options.db_options.env = service_->server_env();
  worker_ = std::make_unique<RemoteCompactionWorker>(worker_options);
  options.compaction_service = worker_.get();

  DB* raw_db = nullptr;
  ASSERT_TRUE(DB::Open(options, "/plaindb", &raw_db).ok());
  std::unique_ptr<DB> db(raw_db);
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), "key" + std::to_string(i % 700),
                        std::string(90, 'p'))
                    .ok());
  }
  ASSERT_TRUE(db->CompactRange(nullptr, nullptr).ok());
  EXPECT_GT(worker_->jobs_run(), 0u);
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), "key69", &value).ok());
}

// Records every physical read of each SST opened through it, with the
// file's stored size at open.
class SstReadRecorder : public EnvWrapper {
 public:
  struct FileReads {
    uint64_t stored_size = 0;
    std::vector<std::pair<uint64_t, size_t>> reads;  // (offset, length)
  };

  explicit SstReadRecorder(Env* target) : EnvWrapper(target) {}

  Status NewRandomAccessFile(const std::string& fname,
                             std::unique_ptr<RandomAccessFile>* result) override {
    Status s = target()->NewRandomAccessFile(fname, result);
    if (s.ok() && fname.size() > 4 &&
        fname.compare(fname.size() - 4, 4, ".sst") == 0) {
      std::lock_guard<std::mutex> lock(mu_);
      FileReads* file = &files_[fname];
      EXPECT_TRUE(target()->GetFileSize(fname, &file->stored_size).ok());
      result->reset(new File(std::move(*result), this, file));
    }
    return s;
  }

  std::map<std::string, FileReads> files() const {
    std::lock_guard<std::mutex> lock(mu_);
    return files_;
  }

 private:
  class File : public RandomAccessFile {
   public:
    File(std::unique_ptr<RandomAccessFile> base, SstReadRecorder* env,
         FileReads* reads)
        : base_(std::move(base)), env_(env), reads_(reads) {}
    Status Read(uint64_t offset, size_t n, Slice* result,
                char* scratch) const override {
      {
        std::lock_guard<std::mutex> lock(env_->mu_);
        reads_->reads.emplace_back(offset, n);
      }
      return base_->Read(offset, n, result, scratch);
    }
    Status Size(uint64_t* size) const override { return base_->Size(size); }

   private:
    std::unique_ptr<RandomAccessFile> base_;
    SstReadRecorder* const env_;
    FileReads* const reads_;
  };

  mutable std::mutex mu_;
  std::map<std::string, FileReads> files_;
};

TEST_F(OffloadTest, WorkerOpensInputsWithOneTailRead) {
  Options options = DbOptions();
  options.level0_file_num_compaction_trigger = 1000;  // CompactRange only
  options.write_buffer_size = 1 << 20;  // one table per Flush
  SstReadRecorder recorder(service_->server_env());
  StartWorker(options, &recorder);
  options.compaction_service = worker_.get();

  DB* raw_db = nullptr;
  ASSERT_TRUE(DB::Open(options, "/dsdb", &raw_db).ok());
  std::unique_ptr<DB> db(raw_db);
  for (int table = 0; table < 3; table++) {
    for (int i = 0; i < 1000; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), "key" + std::to_string(1000 + i),
                          std::string(100, static_cast<char>('a' + table)))
                      .ok());
    }
    ASSERT_TRUE(db->Flush().ok());
  }
  ASSERT_TRUE(db->CompactRange(nullptr, nullptr).ok());
  ASSERT_EQ(1u, worker_->jobs_run());

  // The worker opened the three flushed tables and nothing else.
  const auto files = recorder.files();
  ASSERT_EQ(3u, files.size());
  for (const auto& [fname, file] : files) {
    SCOPED_TRACE(fname);
    const auto& reads = file.reads;
    // The open reads the SHIELD header, then the whole tail in one read
    // that ends at the end of the file.
    ASSERT_GE(reads.size(), 3u);
    EXPECT_EQ(0u, reads[0].first);
    EXPECT_EQ(kShieldHeaderSize, reads[0].second);
    EXPECT_EQ(file.stored_size, reads[1].first + reads[1].second);
    EXPECT_GT(reads[1].second, Footer::kEncodedLength);
    // The scan reads the data blocks through the compaction readahead:
    // far fewer reads than the table has 4 KiB blocks.
    const uint64_t data_bytes = reads[1].first - kShieldHeaderSize;
    EXPECT_LT(reads.size() - 2, data_bytes / options.block_size / 2);
  }
}

// --- One compaction job on both paths -----------------------------------------

// Two plaintext DBs over one MemEnv: one compacts locally, the other
// offloads every compaction to a RemoteCompactionWorker. Background
// compactions stay out (only CompactRange compacts), so given the same
// writes both run the same jobs.
class CompactionPathsTest : public ::testing::Test {
 protected:
  CompactionPathsTest() : env_(NewMemEnv()) {
    RemoteCompactionWorker::WorkerOptions worker_options;
    worker_options.env = env_.get();
    worker_options.db_options = DbOptions();
    worker_ = std::make_unique<RemoteCompactionWorker>(worker_options);
  }

  Options DbOptions() {
    Options options;
    options.env = env_.get();
    options.write_buffer_size = 64 * 1024;
    options.target_file_size_base = 32 * 1024;
    options.level0_file_num_compaction_trigger = 1000;
    options.level0_slowdown_writes_trigger = 1000;
    options.level0_stop_writes_trigger = 1000;
    return options;
  }

  std::unique_ptr<DB> Open(const std::string& name, bool offload) {
    Options options = DbOptions();
    if (offload) {
      options.compaction_service = worker_.get();
    }
    DB* db = nullptr;
    const Status s = DB::Open(options, name, &db);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return std::unique_ptr<DB>(db);
  }

  struct Output {
    std::string smallest, largest;  // internal keys
    std::vector<std::pair<std::string, std::string>> entries;
    std::string bytes;
  };

  // Every live SST, in key order.
  std::vector<Output> LiveOutputs(DB* db) {
    std::vector<std::string> paths;
    EXPECT_TRUE(db->GetLiveSstFiles(&paths).ok());
    const InternalKeyComparator icmp(BytewiseComparator());
    std::vector<Output> outputs;
    for (const std::string& path : paths) {
      Output out;
      EXPECT_TRUE(ReadFileToString(env_.get(), path, &out.bytes).ok());
      std::unique_ptr<RandomAccessFile> file;
      EXPECT_TRUE(env_->NewRandomAccessFile(path, &file).ok());
      std::unique_ptr<Table> table;
      const Status s = Table::Open(DbOptions(), &icmp, path, std::move(file),
                                   out.bytes.size(), /*tail_size=*/0,
                                   /*block_cache=*/{}, &table);
      EXPECT_TRUE(s.ok()) << path << ": " << s.ToString();
      if (!s.ok()) {
        continue;
      }
      std::unique_ptr<Iterator> it(table->NewIterator(ReadOptions()));
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        out.entries.emplace_back(it->key().ToString(), it->value().ToString());
      }
      EXPECT_TRUE(it->status().ok());
      EXPECT_FALSE(out.entries.empty()) << path;
      if (!out.entries.empty()) {
        out.smallest = out.entries.front().first;
        out.largest = out.entries.back().first;
      }
      outputs.push_back(std::move(out));
    }
    std::sort(outputs.begin(), outputs.end(),
              [&icmp](const Output& a, const Output& b) {
                return icmp.Compare(a.smallest, b.smallest) < 0;
              });
    return outputs;
  }

  static std::vector<std::string> FilesPerLevel(DB* db) {
    std::vector<std::string> counts;
    for (int level = 0; level < Options().num_levels; level++) {
      std::string count;
      EXPECT_TRUE(db->GetProperty(
          "shield.num-files-at-level" + std::to_string(level), &count));
      counts.push_back(count);
    }
    return counts;
  }

  size_t SstFilesInDir(const std::string& name) {
    std::vector<std::string> children;
    EXPECT_TRUE(env_->GetChildren(name, &children).ok());
    return std::count_if(children.begin(), children.end(),
                         [](const std::string& child) {
                           return child.size() > 4 &&
                                  child.compare(child.size() - 4, 4, ".sst") ==
                                      0;
                         });
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<RemoteCompactionWorker> worker_;
};

// A seeded mix of overwrites and deletes, with a snapshot held from the
// middle of the first round, compacted twice: the second CompactRange
// merges new L0 data into the bottom level and rewrites the rest in
// place. Both paths must leave the same tables.
TEST_F(CompactionPathsTest, LocalAndOffloadedJobsWriteTheSameTables) {
  std::vector<Output> results[2];
  std::vector<std::string> levels[2];
  for (const bool offload : {false, true}) {
    SCOPED_TRACE(offload ? "offloaded" : "local");
    std::unique_ptr<DB> db = Open(offload ? "/offload" : "/local", offload);
    ASSERT_NE(nullptr, db);
    Random rnd(301);
    const Snapshot* snapshot = nullptr;
    for (int round = 0; round < 2; round++) {
      for (int i = 0; i < 3000; i++) {
        const std::string key = "key" + std::to_string(1000 + rnd.Uniform(800));
        if (rnd.Uniform(4) == 0) {
          ASSERT_TRUE(db->Delete(WriteOptions(), key).ok());
        } else {
          ASSERT_TRUE(db->Put(WriteOptions(), key,
                              std::string(100 + rnd.Uniform(100),
                                          static_cast<char>('a' + i % 26)))
                          .ok());
        }
        if (round == 0 && i == 1500) {
          snapshot = db->GetSnapshot();
        }
      }
      ASSERT_TRUE(db->CompactRange(nullptr, nullptr).ok());
    }
    results[offload] = LiveOutputs(db.get());
    levels[offload] = FilesPerLevel(db.get());
    db->ReleaseSnapshot(snapshot);
  }
  EXPECT_GT(worker_->jobs_run(), 0u);

  const std::vector<Output>& local = results[0];
  const std::vector<Output>& offloaded = results[1];
  EXPECT_EQ(levels[0], levels[1]);
  ASSERT_GE(local.size(), 3u);
  ASSERT_EQ(local.size(), offloaded.size());
  for (size_t i = 0; i < local.size(); i++) {
    SCOPED_TRACE("output " + std::to_string(i));
    EXPECT_EQ(local[i].smallest, offloaded[i].smallest);
    EXPECT_EQ(local[i].largest, offloaded[i].largest);
    EXPECT_EQ(local[i].entries, offloaded[i].entries);
    EXPECT_TRUE(local[i].bytes == offloaded[i].bytes);
  }

  // The mix reached both drop rules' exceptions: the snapshot kept
  // shadowed versions and the tombstones that hide older values.
  size_t tombstones = 0, shadowed = 0;
  std::string previous_user_key;
  for (const Output& out : local) {
    for (const auto& [key, value] : out.entries) {
      ParsedInternalKey ikey;
      ASSERT_TRUE(ParseInternalKey(key, &ikey));
      tombstones += ikey.type == kTypeDeletion;
      shadowed += ikey.user_key == Slice(previous_user_key);
      previous_user_key = ikey.user_key.ToString();
    }
  }
  EXPECT_GT(tombstones, 0u);
  EXPECT_GT(shadowed, 0u);
}

// A job whose every entry is dropped opens no output: no table is
// installed and no file is left behind.
TEST_F(CompactionPathsTest, JobThatDropsEverythingLeavesNothing) {
  for (const bool offload : {false, true}) {
    SCOPED_TRACE(offload ? "offloaded" : "local");
    const std::string name = offload ? "/offload" : "/local";
    std::unique_ptr<DB> db = Open(name, offload);
    ASSERT_NE(nullptr, db);
    ASSERT_TRUE(db->Put(WriteOptions(), "doomed", "value").ok());
    ASSERT_TRUE(db->Delete(WriteOptions(), "doomed").ok());
    const uint64_t jobs_before = worker_->jobs_run();
    ASSERT_TRUE(db->CompactRange(nullptr, nullptr).ok());
    EXPECT_EQ(offload ? jobs_before + 1 : jobs_before, worker_->jobs_run());

    std::vector<std::string> live;
    ASSERT_TRUE(db->GetLiveSstFiles(&live).ok());
    EXPECT_TRUE(live.empty());
    EXPECT_EQ(0u, SstFilesInDir(name));
    std::string value;
    EXPECT_TRUE(db->Get(ReadOptions(), "doomed", &value).IsNotFound());
  }
}

// A flush installs its table warm: opened before it is published (its
// DEK is local) and, since reads are being served, with every data
// block written through to the block cache. The first Get of a flushed
// key then crosses the fabric not at all.
TEST_F(OffloadTest, GetAfterFlushCostsNoRoundTrip) {
  Options options = DbOptions();
  options.write_buffer_size = 1 << 20;  // only Flush() flushes
  DB* raw_db = nullptr;
  ASSERT_TRUE(DB::Open(options, "/dsdb", &raw_db).ok());
  std::unique_ptr<DB> db(raw_db);

  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), "key" + std::to_string(i),
                        "value" + std::to_string(i) + std::string(80, 'w'))
                    .ok());
  }
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), "key7", &value).ok());  // memtable
  ASSERT_TRUE(db->Flush().ok());
  db->WaitForIdle();

  const uint64_t requests = service_->network()->total_requests();
  for (int i = 0; i < 300; i += 13) {
    ASSERT_TRUE(db->Get(ReadOptions(), "key" + std::to_string(i), &value).ok());
    EXPECT_EQ("value" + std::to_string(i) + std::string(80, 'w'), value);
  }
  EXPECT_EQ(requests, service_->network()->total_requests());
}

// --- Read-only instances ----------------------------------------------------------

TEST_F(OffloadTest, ReadOnlyInstanceSharesStorage) {
  Options options = DbOptions();
  DB* raw_primary = nullptr;
  ASSERT_TRUE(DB::Open(options, "/dsdb", &raw_primary).ok());
  std::unique_ptr<DB> primary(raw_primary);

  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(primary->Put(WriteOptions(), "key" + std::to_string(i),
                             "generation-1")
                    .ok());
  }
  ASSERT_TRUE(primary->Flush().ok());

  // A read-only instance on another "server" (its own remote env and
  // KDS identity).
  auto reader_env = NewRemoteEnv(service_.get(), nullptr);
  kds_->AuthorizeServer("reader");
  Options reader_options = options;
  reader_options.env = reader_env.get();
  reader_options.encryption.server_id = "reader";
  DB* raw_reader = nullptr;
  ASSERT_TRUE(DB::OpenReadOnly(reader_options, "/dsdb", &raw_reader).ok());
  std::unique_ptr<DB> reader(raw_reader);

  std::string value;
  ASSERT_TRUE(reader->Get(ReadOptions(), "key7", &value).ok());
  EXPECT_EQ("generation-1", value);

  // Writes are rejected.
  EXPECT_TRUE(reader->Put(WriteOptions(), "x", "y").IsNotSupported());

  // Primary keeps writing; reader catches up on demand.
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(primary->Put(WriteOptions(), "key" + std::to_string(i),
                             "generation-2")
                    .ok());
  }
  ASSERT_TRUE(primary->Flush().ok());
  ASSERT_TRUE(reader->TryCatchUp().ok());
  ASSERT_TRUE(reader->Get(ReadOptions(), "key7", &value).ok());
  EXPECT_EQ("generation-2", value);
}

TEST(ReadOnlyTest, OpenMissingDbFails) {
  auto env = NewMemEnv();
  Options options;
  options.env = env.get();
  DB* db = nullptr;
  EXPECT_FALSE(DB::OpenReadOnly(options, "/missing", &db).ok());
  EXPECT_EQ(nullptr, db);
}

TEST(ReadOnlyTest, SeesWalTailOfPrimary) {
  auto env = NewMemEnv();
  Options options;
  options.env = env.get();
  DB* raw_primary = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw_primary).ok());
  std::unique_ptr<DB> primary(raw_primary);
  // Unflushed data living only in the (synced) WAL.
  WriteOptions sync_options;
  sync_options.sync = true;
  ASSERT_TRUE(primary->Put(sync_options, "wal-only", "visible").ok());

  DB* raw_reader = nullptr;
  ASSERT_TRUE(DB::OpenReadOnly(options, "/db", &raw_reader).ok());
  std::unique_ptr<DB> reader(raw_reader);
  std::string value;
  ASSERT_TRUE(reader->Get(ReadOptions(), "wal-only", &value).ok());
  EXPECT_EQ("visible", value);
}

}  // namespace
}  // namespace shield
