#include "sim/sim_harness.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "sim/sim_clock.h"
#include "sim/sim_cluster.h"
#include "sim/sim_events.h"
#include "sim/sim_oracle.h"
#include "sim/sim_scheduler.h"
#include "util/clock.h"

namespace shield {
namespace sim {

const char* FaultProfileName(FaultProfile profile) {
  switch (profile) {
    case FaultProfile::kNone:
      return "none";
    case FaultProfile::kStorage:
      return "storage";
    case FaultProfile::kNetwork:
      return "network";
    case FaultProfile::kMixed:
      return "mixed";
    case FaultProfile::kRotation:
      return "rotation";
    case FaultProfile::kWrite:
      return "write";
    case FaultProfile::kHealth:
      return "health";
  }
  return "unknown";
}

bool ParseFaultProfile(const std::string& name, FaultProfile* out) {
  if (name == "none") {
    *out = FaultProfile::kNone;
  } else if (name == "storage") {
    *out = FaultProfile::kStorage;
  } else if (name == "network") {
    *out = FaultProfile::kNetwork;
  } else if (name == "mixed") {
    *out = FaultProfile::kMixed;
  } else if (name == "rotation") {
    *out = FaultProfile::kRotation;
  } else if (name == "write") {
    *out = FaultProfile::kWrite;
  } else if (name == "health") {
    *out = FaultProfile::kHealth;
  } else {
    return false;
  }
  return true;
}

namespace {

/// Active (op/fault-scheduling) window of each epoch, before the heal
/// + barrier phase.
constexpr uint64_t kEpochActiveMicros = 2 * 1000 * 1000;
/// Driver-only writes issued between the barrier and a simulated
/// crash (the deterministic crash-loss window).
constexpr int kPostBarrierCrashOps = 30;

/// Splits SimConfig::health_fault_classes ("kds,partition") into
/// validated tokens; false on an empty spec or an unknown class.
bool ParseHealthClasses(const std::string& spec,
                        std::vector<std::string>* out) {
  out->clear();
  size_t start = 0;
  while (start <= spec.size()) {
    const size_t comma = spec.find(',', start);
    const std::string token =
        comma == std::string::npos ? spec.substr(start)
                                   : spec.substr(start, comma - start);
    if (token != "kds" && token != "partition") {
      return false;
    }
    out->push_back(token);
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return !out->empty();
}

/// One simulated cluster lifetime. All mutable state lives here; the
/// public RunSimulation() below is a thin wrapper.
class SimulationRun {
 public:
  explicit SimulationRun(const SimConfig& config)
      : cfg_(config),
        override_(&clock_),
        sched_(&clock_, config.seed),
        ops_rnd_(config.seed ^ 0x09555),
        faults_rnd_(config.seed ^ 0xfa0175),
        check_rnd_(config.seed ^ 0xc4ec55) {}

  SimReport Run() {
    const auto wall_start = std::chrono::steady_clock::now();
    report_.seed = cfg_.seed;

    if (cfg_.profile == FaultProfile::kHealth &&
        !ParseHealthClasses(cfg_.health_fault_classes, &health_classes_)) {
      report_.failure =
          "invalid health fault classes: " + cfg_.health_fault_classes;
      report_.ok = false;
      return report_;
    }

    SimClusterOptions copts;
    copts.seed = cfg_.seed;
    copts.num_replicas = cfg_.num_replicas;
    copts.info_log = cfg_.info_log;
    copts.inject_stale_replica_bug = cfg_.inject_stale_replica_bug;
    copts.use_failover_kds = cfg_.profile == FaultProfile::kRotation;
    copts.observability =
        cfg_.observability || cfg_.profile == FaultProfile::kHealth;
    if (cfg_.profile == FaultProfile::kWrite) {
      // The property under test: crash recovery and replica catch-up
      // from a padded, encrypted WAL must strip the padding
      // transparently, with bit-exact journals and zero synced-write
      // loss.
      copts.wal_padding_buckets = {64, 256, 1024, 4096};
    }
    cluster_ = std::make_unique<SimCluster>(copts);
    Status s = cluster_->Start();
    journal_ = std::make_unique<SimJournal>(cluster_->event_logger());
    if (!s.ok()) {
      Fail("cluster start: " + s.ToString());
    } else {
      // Epoch count is a pure function of the config — deriving it
      // from elapsed virtual time would be nondeterministic (stall and
      // backoff loops advance the clock by amounts that depend on real
      // thread interleaving).
      const uint64_t epochs =
          std::max<uint64_t>(1, cfg_.duration_sec * 1000 * 1000 /
                                    std::max<uint64_t>(1, cfg_.epoch_idle_micros));
      for (uint64_t e = 0; e < epochs && report_.failure.empty(); e++) {
        RunEpoch(e);
        report_.epochs_run = e + 1;
      }
    }

    report_.ok = report_.failure.empty();
    report_.model_hash = oracle_.ModelHash();
    {
      auto done = journal_->NewEvent("sim_done");
      done.Add("ok", report_.ok)
          .Add("epochs", report_.epochs_run)
          .Add("ops", report_.ops_acknowledged)
          .Add("oracle_checks", report_.oracle_checks)
          .Add("crashes", report_.crashes)
          .Add("faults", report_.faults_injected)
          .Add("model_hash", report_.model_hash);
      done.Emit();
    }

    // Observability exports, before teardown: drain per-node traces
    // and take one final metrics scrape per DB node. Neither touches
    // the journal (trace files carry virtual timestamps; metrics carry
    // compaction-shape-dependent counters).
    cluster_->CollectTraceFiles(&report_.trace_files);
    cluster_->CollectNodeMetrics(&report_.node_metrics);

    // Tear the cluster down while the virtual clock is still
    // installed: destructors sleep through it.
    cluster_.reset();

    report_.virtual_micros = clock_.ElapsedMicros();
    report_.wall_micros = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count());
    report_.journal = journal_->text();
    return report_;
  }

 private:
  void Fail(const std::string& why) {
    if (!report_.failure.empty()) {
      return;  // keep the first failure
    }
    report_.failure = why;
    auto ev = journal_->NewEvent("sim_failed");
    ev.Add("reason", why);
    ev.Emit();
  }

  bool Failed() const { return !report_.failure.empty(); }

  bool IsStorageProfile() const {
    return cfg_.profile == FaultProfile::kStorage ||
           cfg_.profile == FaultProfile::kMixed ||
           cfg_.profile == FaultProfile::kWrite;
  }

  /// The write-path campaign crashes at a third of the configured
  /// cadence (every 2 epochs at the default 6): crash recovery from
  /// the padded encrypted WAL is the property under test, not an
  /// occasional disturbance.
  int CrashCadence() const {
    if (cfg_.crash_every > 0 && cfg_.profile == FaultProfile::kWrite) {
      return std::max(1, cfg_.crash_every / 3);
    }
    return cfg_.crash_every;
  }
  bool IsNetworkProfile() const {
    return cfg_.profile == FaultProfile::kNetwork ||
           cfg_.profile == FaultProfile::kMixed;
  }

  void RunEpoch(uint64_t e) {
    {
      auto ev = journal_->NewEvent("sim_epoch");
      ev.Add("epoch", e).Add("profile", FaultProfileName(cfg_.profile));
      ev.Emit();
    }

    // Snapshot taken at the (quiesced) start of the epoch; verified
    // against a frozen copy of the model after the barrier.
    const Snapshot* snap = cluster_->writer()->GetSnapshot();
    const std::map<std::string, std::string> snap_model = oracle_.latest();

    ArmFaults(e);
    ScheduleOps(e);
    sched_.RunUntilIdle();

    // Heal + durability barrier. Oracle checks always run on a
    // healthy, quiesced cluster; fault effects on *timing* are over.
    cluster_->HealAllFaults();
    if (!Failed()) {
      Status s = cluster_->Quiesce();
      if (!s.ok()) {
        Fail("quiesce: " + s.ToString());
      }
    }
    if (!Failed()) {
      oracle_.MarkDurableBarrier();
      CheckSnapshot(e, snap, snap_model);
    }
    cluster_->writer()->ReleaseSnapshot(snap);
    if (Failed()) {
      return;
    }

    if (cfg_.maintenance_every > 0 && e > 0 &&
        e % static_cast<uint64_t>(cfg_.maintenance_every) == 0 &&
        IsStorageProfile()) {
      RunMaintenance(e);
      if (Failed()) {
        return;
      }
    }

    if (cfg_.profile == FaultProfile::kRotation && e >= 2) {
      RunRotationEpoch(e);
      if (Failed()) {
        return;
      }
    }

    RunOracleChecks(e);
    if (Failed()) {
      return;
    }

    if (cfg_.profile == FaultProfile::kHealth) {
      RunHealthEpoch(e);
      if (Failed()) {
        return;
      }
    }

    const int crash_every = CrashCadence();
    if (crash_every > 0 && e > 0 &&
        e % static_cast<uint64_t>(crash_every) == 0 && IsStorageProfile()) {
      RunCrashEpoch(e);
      if (Failed()) {
        return;
      }
    }

    sched_.RunFor(cfg_.epoch_idle_micros);
  }

  /// Draws this epoch's fault plan from faults_rnd_ — always the same
  /// number of draws, regardless of which faults end up armed, so the
  /// PRNG stream never depends on simulation state.
  void ArmFaults(uint64_t e) {
    uint64_t r[10];
    for (auto& v : r) {
      v = faults_rnd_.Next64();
    }
    if (cfg_.profile == FaultProfile::kNone ||
        cfg_.profile == FaultProfile::kRotation ||
        cfg_.profile == FaultProfile::kHealth) {
      // The rotation and health campaigns inject their faults inside
      // their own epoch phases (they must bracket specific steps —
      // rotation passes, health evaluations — not land at seeded
      // offsets in the op window); the draws above still happen so the
      // PRNG stream is profile-independent.
      return;
    }

    if (IsStorageProfile()) {
      // Transient-only I/O error burst for the whole active window.
      // (No permanent errors or short reads: those surface
      // non-retryable statuses by design and would fail driver ops.)
      const bool io_burst = r[0] % 100 < 70;
      if (io_burst) {
        FaultEvent(e, "io_errors", 0, kEpochActiveMicros);
        sched_.ScheduleAt(sched_.now(), "fault:io:" + std::to_string(e), [this] {
          FaultInjectionOptions fo;
          fo.seed = cfg_.seed ^ 0xfa117;  // options swap keeps PRNG state
          fo.read_error_probability = 0.02;
          fo.write_error_probability = 0.02;
          fo.metadata_error_probability = 0.01;
          fo.permanent_error_ratio = 0.0;
          fo.torn_write_probability = 0.0;
          cluster_->fault_env()->SetOptions(fo);
          cluster_->fault_env()->SetFaultsEnabled(true);
        });
      }
      const bool kds_outage = r[1] % 100 < 60;
      if (kds_outage) {
        const uint64_t offset = r[2] % 1500000;
        const uint64_t window = 300000 + r[3] % 1200000;
        FaultEvent(e, "kds_outage", offset, window);
        sched_.ScheduleAfter(offset, "fault:kds:" + std::to_string(e),
                             [this, window] {
                               cluster_->faulty_kds()->SetFaultsEnabled(true);
                               cluster_->faulty_kds()->StartOutageFor(window);
                             });
      }
    }
    if (IsNetworkProfile()) {
      const bool partition = r[4] % 100 < 70;
      if (partition) {
        const uint64_t offset = r[5] % 1200000;
        const uint64_t window = 200000 + r[6] % 900000;
        FaultEvent(e, "partition", offset, window);
        sched_.ScheduleAfter(offset, "fault:net:" + std::to_string(e),
                             [this, window] {
                               cluster_->network()->StartPartitionFor(window);
                             });
        // Overlapping re-arm half-way through the first window: per
        // the NetworkSimulator contract this only ever extends the
        // outage (the satellite-2 semantics, exercised continuously).
        const bool rearm = r[7] % 100 < 50;
        if (rearm) {
          const uint64_t offset2 = offset + window / 2;
          const uint64_t window2 = 100000 + r[8] % 900000;
          FaultEvent(e, "partition_rearm", offset2, window2);
          sched_.ScheduleAfter(offset2, "fault:net2:" + std::to_string(e),
                               [this, window2] {
                                 cluster_->network()->StartPartitionFor(window2);
                               });
        }
      }
    }
  }

  void FaultEvent(uint64_t e, const char* kind, uint64_t offset,
                  uint64_t window) {
    report_.faults_injected++;
    auto ev = journal_->NewEvent("sim_fault_injected");
    ev.Add("epoch", e)
        .Add("kind", kind)
        .Add("offset_micros", offset)
        .Add("window_micros", window);
    ev.Emit();
  }

  void ScheduleOps(uint64_t e) {
    uint64_t puts = 0, dels = 0, syncs = 0;
    for (int i = 0; i < cfg_.ops_per_epoch; i++) {
      const uint64_t offset = ops_rnd_.Next64() % kEpochActiveMicros;
      const std::string key =
          "k" + std::to_string(ops_rnd_.Uniform(cfg_.key_space));
      const bool is_delete = ops_rnd_.OneIn(8);
      const bool sync = ops_rnd_.OneIn(12);
      std::string value;
      if (!is_delete) {
        value = "v-" + std::to_string(e) + "-" + std::to_string(i) + "-" +
                std::to_string(ops_rnd_.Next64());
        value.resize(40 + ops_rnd_.Uniform(120), 'x');
      }
      (is_delete ? dels : puts)++;
      if (sync) {
        syncs++;
      }
      const std::string label =
          "op:" + std::to_string(e) + ":" + std::to_string(i);
      sched_.ScheduleAfter(offset, label, [this, key, value, is_delete, sync] {
        if (Failed()) {
          return;  // first failure wins; skip the rest of the epoch
        }
        Status s = is_delete ? cluster_->Delete(key, sync)
                             : cluster_->Put(key, value, sync);
        if (!s.ok()) {
          Fail("driver op on " + key + ": " + s.ToString());
          return;
        }
        if (is_delete) {
          oracle_.RecordDelete(key, sync);
        } else {
          oracle_.RecordPut(key, value, sync);
        }
        report_.ops_acknowledged++;
      });
    }
    auto ev = journal_->NewEvent("sim_ops");
    ev.Add("epoch", e)
        .Add("scheduled", static_cast<uint64_t>(cfg_.ops_per_epoch))
        .Add("puts", puts)
        .Add("deletes", dels)
        .Add("syncs", syncs);
    ev.Emit();
  }

  void CheckSnapshot(uint64_t e, const Snapshot* snap,
                     const std::map<std::string, std::string>& snap_model) {
    if (snap_model.empty()) {
      return;
    }
    ReadOptions ropts;
    ropts.snapshot = snap;
    uint64_t checked = 0;
    for (int i = 0; i < 8; i++) {
      auto it = snap_model.begin();
      std::advance(it, check_rnd_.Uniform(static_cast<int>(snap_model.size())));
      std::string got;
      Status s = cluster_->writer()->Get(ropts, it->first, &got);
      checked++;
      if (!s.ok() || got != it->second) {
        OracleEvent(e, "writer", "snapshot", false, checked);
        Fail("snapshot read of " + it->first + " diverged: " +
             (s.ok() ? "wrong value" : s.ToString()));
        return;
      }
    }
    report_.oracle_checks++;
    OracleEvent(e, "writer", "snapshot", true, checked);
  }

  void RunMaintenance(uint64_t e) {
    const uint64_t raw_pick = faults_rnd_.Next64();
    const uint64_t raw_bit = faults_rnd_.Next64();
    Status s = cluster_->BitFlipSomeSst(raw_pick, raw_bit);
    {
      auto ev = journal_->NewEvent("sim_maintenance");
      ev.Add("epoch", e).Add("bitflip", s.ok());
      ev.Emit();
    }
    if (s.IsNotFound()) {
      return;  // no SSTs yet (only possible in the first epochs)
    }
    if (!s.ok()) {
      Fail("bit flip: " + s.ToString());
      return;
    }
    report_.faults_injected++;
    s = cluster_->VerifyAndRepair();
    if (!s.ok()) {
      Fail("scrub repair after bit flip: " + s.ToString());
      return;
    }
    // Replicas may hold table-cache handles to the pre-repair bytes;
    // restart them so their next reads see the repaired file.
    s = cluster_->RestartReplicas();
    if (!s.ok()) {
      Fail("replica restart: " + s.ToString());
    }
  }

  /// One rotation scenario per epoch, cycling with the epoch number:
  ///   0 — bounded rotation, then writer crash; reopen must resume the
  ///       persisted rotation manifest in the background.
  ///   1 — full rotation under a primary-KDS outage that outlives the
  ///       driver retry deadline; only the failover endpoint can
  ///       finish it.
  ///   2 — bounded rotation, bit flip on the half-rotated file set,
  ///       scrub repair, then finish the rotation.
  /// Every scenario ends with an unbounded rotation pass (which also
  /// drains deferred DEK deletes), then the DEK-lifecycle oracle:
  /// no pre-rotation SST DEK id may resolve, every live one must.
  void RunRotationEpoch(uint64_t e) {
    // Fixed draw count per epoch regardless of scenario, so the fault
    // PRNG stream never depends on scenario internals.
    const uint64_t raw_pick = faults_rnd_.Next64();
    const uint64_t raw_bit = faults_rnd_.Next64();
    const int scenario = static_cast<int>(e % 3);

    std::vector<std::string> pre_ids;
    Status s = cluster_->CollectWriterSstDekIds(&pre_ids);
    if (!s.ok()) {
      Fail("collect pre-rotation DEK ids: " + s.ToString());
      return;
    }

    RotateResult result;
    bool planned_any = false;
    bool crashed = false;
    bool outage = false;
    bool bitflip = false;

    if (scenario == 0) {
      s = cluster_->RotateWriterDeks(/*max_files=*/2, &result);
      if (!s.ok()) {
        Fail("bounded rotation: " + s.ToString());
        return;
      }
      planned_any = result.files_rotated + result.files_skipped +
                        result.files_pending >
                    0;
      s = cluster_->CrashAndRecoverWriter();
      if (!s.ok()) {
        Fail("crash mid-rotation: " + s.ToString());
        return;
      }
      crashed = true;
      report_.crashes++;
    } else if (scenario == 1) {
      // 200 virtual seconds of primary-KDS outage: longer than the
      // 120 s driver retry deadline, so riding it out is impossible —
      // the rotation below completes only if the writer fails over.
      outage = true;
      report_.faults_injected++;
      cluster_->faulty_kds()->SetFaultsEnabled(true);
      cluster_->faulty_kds()->StartOutageFor(200ull * 1000 * 1000);
    } else {
      s = cluster_->RotateWriterDeks(/*max_files=*/2, &result);
      if (!s.ok()) {
        Fail("bounded rotation: " + s.ToString());
        return;
      }
      planned_any = result.files_rotated + result.files_skipped +
                        result.files_pending >
                    0;
      Status fs = cluster_->BitFlipSomeSst(raw_pick, raw_bit);
      if (fs.ok()) {
        bitflip = true;
        report_.faults_injected++;
        s = cluster_->VerifyAndRepair();
        if (!s.ok()) {
          Fail("scrub repair mid-rotation: " + s.ToString());
          return;
        }
      } else if (!fs.IsNotFound()) {
        Fail("bit flip mid-rotation: " + s.ToString());
        return;
      }
    }

    // Complete the rotation. The pass mutex serializes this behind a
    // crash-resumed background pass, and the fresh unbounded plan
    // re-covers anything the bounded pass never reached.
    s = cluster_->RotateWriterDeks(/*max_files=*/0, &result);
    if (!s.ok()) {
      Fail("complete rotation: " + s.ToString());
      return;
    }
    planned_any = planned_any || result.files_rotated +
                                         result.files_skipped +
                                         result.files_pending >
                                     0;
    if (outage) {
      cluster_->HealAllFaults();
    }
    s = cluster_->WaitRotationIdle();
    if (!s.ok()) {
      Fail("rotation did not reach idle: " + s.ToString());
      return;
    }
    // Rotated-away files are deleted; replicas must drop their stale
    // table-cache handles before the epoch's oracle reads.
    s = cluster_->RestartReplicas();
    if (!s.ok()) {
      Fail("replica restart after rotation: " + s.ToString());
      return;
    }

    const bool stale_gone = CheckStaleDeksGone(pre_ids);
    const bool live_ok = Failed() ? false : CheckLiveDeksResolve();
    std::string pending;
    cluster_->writer()->GetProperty("shield.dek.pending-deletes", &pending);
    const bool drained = pending == "0";
    report_.oracle_checks++;

    {
      auto ev = journal_->NewEvent("sim_rotation");
      ev.Add("epoch", e)
          .Add("scenario", scenario)
          .Add("planned", planned_any)
          .Add("crashed", crashed)
          .Add("kds_outage", outage)
          .Add("bitflip", bitflip)
          .Add("stale_deks_gone", stale_gone)
          .Add("live_deks_ok", live_ok)
          .Add("deletes_drained", drained);
      ev.Emit();
    }
    if (!drained) {
      Fail("deferred DEK deletes not drained after rotation: " + pending);
    }
  }

  /// True when every pre-rotation SST DEK id now resolves to NotFound
  /// at the KDS (checked beneath the fault layers). Fails the run
  /// otherwise.
  bool CheckStaleDeksGone(const std::vector<std::string>& pre_ids) {
    for (const auto& hex : pre_ids) {
      DekId id;
      if (!DekId::FromHex(hex, &id)) {
        Fail("unparsable DEK id: " + hex);
        return false;
      }
      Dek dek;
      Status g = cluster_->sim_kds()->GetDek("writer", id, &dek);
      if (!g.IsNotFound()) {
        Fail("pre-rotation DEK id still resolvable: " + hex + " -> " +
             g.ToString());
        return false;
      }
    }
    return true;
  }

  /// True when every live SST's embedded DEK id resolves at the KDS
  /// (no key was lost to the rotation). Fails the run otherwise.
  bool CheckLiveDeksResolve() {
    std::vector<std::string> live_ids;
    Status s = cluster_->CollectWriterSstDekIds(&live_ids);
    if (!s.ok()) {
      Fail("collect live DEK ids: " + s.ToString());
      return false;
    }
    for (const auto& hex : live_ids) {
      DekId id;
      if (!DekId::FromHex(hex, &id)) {
        Fail("unparsable DEK id: " + hex);
        return false;
      }
      Dek dek;
      Status g = cluster_->sim_kds()->GetDek("writer", id, &dek);
      if (!g.ok()) {
        Fail("live DEK id not resolvable: " + hex + " -> " + g.ToString());
        return false;
      }
    }
    return true;
  }

  /// Health-plane campaign epoch (kHealth): on the quiesced, caught-up
  /// cluster, arm one fault class, prove it surfaces as the expected
  /// detector transition mid-fault, heal, and prove the recovery edge.
  /// Journal events carry only logical fields — {epoch, node,
  /// detector, from, to, phase} — so runs are bit-identical per seed.
  void RunHealthEpoch(uint64_t e) {
    const std::string& cls = health_classes_[e % health_classes_.size()];

    // Baseline pass: absorb steady-state edges left by the op window
    // (write stalls, L0 debt) so the fault pass below reports exactly
    // the fault-driven transition. Verdicts are discarded.
    EvaluateAllNodesHealth();

    {
      auto ev = journal_->NewEvent("sim_health_fault");
      ev.Add("epoch", e).Add("class", cls);
      ev.Emit();
    }
    report_.faults_injected++;

    // Windows are generous (healed explicitly below); the probes run
    // synchronously well inside them.
    constexpr uint64_t kHealthWindowMicros = 60ull * 1000 * 1000;
    if (cls == "kds") {
      cluster_->faulty_kds()->StartOutageFor(kHealthWindowMicros);
      if (!ExpectHealthTransition(e, "writer", cluster_->writer(), "kds",
                                  HealthLevel::kCritical, "onset")) {
        return;
      }
    } else {  // "partition"
      cluster_->network()->StartPartitionFor(kHealthWindowMicros);
      for (int i = 0; i < cluster_->num_replicas(); i++) {
        if (!ExpectHealthTransition(e, "replica-" + std::to_string(i),
                                    cluster_->replica(i), "replica.catchup",
                                    HealthLevel::kCritical, "onset")) {
          return;
        }
      }
    }

    cluster_->HealAllFaults();
    Status s = cluster_->Quiesce();
    if (!s.ok()) {
      Fail("health epoch quiesce: " + s.ToString());
      return;
    }
    s = cluster_->CatchUpReplicas();
    if (!s.ok()) {
      Fail("health epoch catch-up: " + s.ToString());
      return;
    }

    // Recovery pass: the same detectors must report the edge back to
    // ok now that the fault is healed and replicas are caught up.
    if (cls == "kds") {
      if (!ExpectHealthTransition(e, "writer", cluster_->writer(), "kds",
                                  HealthLevel::kOk, "recovered")) {
        return;
      }
    } else {
      for (int i = 0; i < cluster_->num_replicas(); i++) {
        if (!ExpectHealthTransition(e, "replica-" + std::to_string(i),
                                    cluster_->replica(i), "replica.catchup",
                                    HealthLevel::kOk, "recovered")) {
          return;
        }
      }
    }
    report_.oracle_checks++;
  }

  void EvaluateAllNodesHealth() {
    cluster_->writer()->EvaluateHealth(nullptr);
    for (int i = 0; i < cluster_->num_replicas(); i++) {
      cluster_->replica(i)->EvaluateHealth(nullptr);
    }
  }

  /// Evaluates `db`'s health plane, journals every transition of
  /// `detector` (other detectors may flap on run-dependent state and
  /// stay out of the journal), and requires one whose target level is
  /// `expect`. False (run failed) otherwise.
  bool ExpectHealthTransition(uint64_t e, const std::string& node, DB* db,
                              const std::string& detector, HealthLevel expect,
                              const char* phase) {
    std::vector<HealthTransition> transitions;
    Status s = db->EvaluateHealth(&transitions);
    if (!s.ok()) {
      Fail("health evaluation on " + node + ": " + s.ToString());
      return false;
    }
    bool seen = false;
    for (const auto& t : transitions) {
      if (t.detector != detector) {
        continue;
      }
      auto ev = journal_->NewEvent("health_transition");
      ev.Add("epoch", e)
          .Add("node", node)
          .Add("detector", t.detector)
          .Add("from", HealthLevelName(t.from))
          .Add("to", HealthLevelName(t.to))
          .Add("phase", phase);
      ev.Emit();
      if (t.to == expect) {
        seen = true;
      }
    }
    if (!seen) {
      Fail("health: " + node + "/" + detector + " did not transition to " +
           std::string(HealthLevelName(expect)) + " at " + phase);
      return false;
    }
    return true;
  }

  void RunOracleChecks(uint64_t e) {
    Status s = cluster_->CatchUpReplicas();
    if (!s.ok()) {
      Fail("replica catch-up: " + s.ToString());
      return;
    }
    const bool scan_epoch =
        cfg_.scan_every > 0 && e % static_cast<uint64_t>(cfg_.scan_every) == 0;

    if (!CheckOne(e, "writer", cluster_->writer(), scan_epoch)) {
      return;
    }
    for (int i = 0; i < cluster_->num_replicas(); i++) {
      if (!CheckOne(e, "replica-" + std::to_string(i), cluster_->replica(i),
                    scan_epoch)) {
        return;
      }
    }
  }

  /// Runs the read check (and optionally the scan check) for one node,
  /// journaling verdicts. False when the epoch must stop.
  bool CheckOne(uint64_t e, const std::string& who, DB* db, bool scan) {
    OracleVerdict v = oracle_.CheckReads(who, db, &check_rnd_,
                                         static_cast<size_t>(cfg_.sample_reads));
    report_.oracle_checks++;
    OracleEvent(e, who, "reads", v.ok, v.keys_checked);
    if (!v.ok) {
      Fail("oracle: " + v.detail);
      return false;
    }
    if (scan) {
      v = oracle_.CheckScan(who, db);
      report_.oracle_checks++;
      auto ev = journal_->NewEvent("oracle_check");
      ev.Add("epoch", e)
          .Add("who", who)
          .Add("kind", "scan")
          .Add("ok", v.ok)
          .Add("keys", v.keys_checked)
          .Add("model_hash", oracle_.ModelHash());
      ev.Emit();
      if (!v.ok) {
        Fail("oracle: " + v.detail);
        return false;
      }
    }
    return true;
  }

  void OracleEvent(uint64_t e, const std::string& who, const char* kind,
                   bool ok, uint64_t keys) {
    auto ev = journal_->NewEvent("oracle_check");
    ev.Add("epoch", e).Add("who", who).Add("kind", kind).Add("ok", ok).Add(
        "keys", keys);
    ev.Emit();
  }

  void RunCrashEpoch(uint64_t e) {
    // Driver-only writes past the barrier form the potential loss
    // window: no background flush runs (they fit well inside the write
    // buffer), so what survives is exactly the WAL's synced prefix.
    // Values are a few hundred bytes so the encrypted WAL buffer
    // flushes file-appended-but-unsynced bytes mid-window.
    for (int i = 0; i < kPostBarrierCrashOps; i++) {
      const std::string key =
          "k" + std::to_string(ops_rnd_.Uniform(cfg_.key_space));
      std::string value = "crash-" + std::to_string(e) + "-" +
                          std::to_string(i) + "-" +
                          std::to_string(ops_rnd_.Next64());
      value.resize(200 + ops_rnd_.Uniform(200), 'c');
      const bool sync = (i % 10 == 0);
      Status s = cluster_->Put(key, value, sync);
      if (!s.ok()) {
        Fail("pre-crash op: " + s.ToString());
        return;
      }
      oracle_.RecordPut(key, value, sync);
      report_.ops_acknowledged++;
    }

    Status s = cluster_->CrashAndRecoverWriter();
    if (!s.ok()) {
      Fail("crash recovery: " + s.ToString());
      return;
    }
    report_.crashes++;

    uint64_t cut = 0, lost = 0;
    OracleVerdict v = oracle_.CheckCrashRecovery(cluster_->writer(), &cut, &lost);
    report_.oracle_checks++;
    {
      auto ev = journal_->NewEvent("sim_crash");
      ev.Add("epoch", e)
          .Add("post_barrier_ops", static_cast<uint64_t>(kPostBarrierCrashOps))
          .Add("ok", v.ok)
          .Add("survived_ops", cut)
          .Add("lost_ops", lost);
      ev.Emit();
    }
    if (!v.ok) {
      Fail("oracle: " + v.detail);
      return;
    }

    // Bring the replicas to the recovered state and spot-check them.
    s = cluster_->CatchUpReplicas();
    if (!s.ok()) {
      Fail("post-crash replica catch-up: " + s.ToString());
      return;
    }
    for (int i = 0; i < cluster_->num_replicas(); i++) {
      const std::string who = "replica-" + std::to_string(i);
      OracleVerdict rv =
          oracle_.CheckReads(who, cluster_->replica(i), &check_rnd_, 8);
      report_.oracle_checks++;
      OracleEvent(e, who, "post_crash_reads", rv.ok, rv.keys_checked);
      if (!rv.ok) {
        Fail("oracle: " + rv.detail);
        return;
      }
    }
  }

  const SimConfig cfg_;
  SimClock clock_;
  ScopedClockOverride override_;
  SimScheduler sched_;
  Random ops_rnd_;
  Random faults_rnd_;
  Random check_rnd_;
  SimOracle oracle_;
  std::vector<std::string> health_classes_;
  std::unique_ptr<SimCluster> cluster_;
  std::unique_ptr<SimJournal> journal_;
  SimReport report_;
};

}  // namespace

SimReport RunSimulation(const SimConfig& config) {
  SimulationRun run(config);
  return run.Run();
}

}  // namespace sim
}  // namespace shield
