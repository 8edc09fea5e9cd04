#ifndef SHIELD_SIM_SIM_HARNESS_H_
#define SHIELD_SIM_SIM_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/logger.h"

namespace shield {
namespace sim {

/// Which fault sources each epoch arms (all heal before the epoch's
/// quiesce barrier, so oracle checks always run on a healthy cluster).
enum class FaultProfile {
  kNone,     // determinism baseline: no faults at all
  kStorage,  // seeded I/O error bursts + KDS outages + bit-flips
  kNetwork,  // seeded (overlapping) fabric partition windows
  kMixed,    // both of the above plus periodic writer crashes
  // DEK-rotation campaign: each epoch runs one rotation scenario —
  // writer crash mid-rotation (resume-at-reopen), a primary-KDS
  // outage longer than the driver retry deadline (survivable only via
  // KDS failover), or a bit flip on a half-rotated file (scrub repair
  // mid-rotation). After every scenario the oracle asserts that no
  // pre-rotation DEK id resolves and every live file's DEK does.
  kRotation,
  // Write-path campaign: the writer runs with a padded encrypted WAL
  // (buckets {64, 256, 1024, 4096}) under storage fault bursts and a
  // crash-heavy cadence (a crash epoch every crash_every/3 epochs).
  // Each crash lands mid-stream on the WAL — before or after the
  // sync, depending on the seeded op mix — and the recovery oracle
  // asserts the synced prefix survives with zero acknowledged-sync
  // loss.
  kWrite,
  // Cluster-health-plane campaign: every epoch arms one fault class
  // from SimConfig::health_fault_classes (cycling), evaluates each
  // node's HealthMonitor mid-fault and again after heal + catch-up,
  // and journals the allowlisted detector transitions
  // (ok→warn/critical at onset, back →ok at recovery). The epoch
  // FAILS if the armed fault class does not surface as the expected
  // transition on the expected node. Runs with the observability
  // plane on (per-node tracers + metrics).
  kHealth,
};

const char* FaultProfileName(FaultProfile profile);
/// Parses "none"/"storage"/"network"/"mixed"/"rotation"/"write"/
/// "health"; false on anything else.
bool ParseFaultProfile(const std::string& name, FaultProfile* out);

struct SimConfig {
  uint64_t seed = 1;

  /// Simulated duration. Virtual epochs are derived from this
  /// (duration / epoch_idle) — never from elapsed virtual time, which
  /// background stall loops advance by nondeterministic amounts.
  uint64_t duration_sec = 60;

  FaultProfile profile = FaultProfile::kMixed;
  int num_replicas = 2;

  /// Writer ops scheduled per epoch (at seeded virtual offsets, in
  /// seeded interleave with fault onsets).
  int ops_per_epoch = 120;
  /// Distinct keys; small enough that overwrites/deletes are common.
  int key_space = 800;

  /// Idle virtual time appended to each epoch (also the divisor that
  /// turns duration_sec into an epoch count).
  uint64_t epoch_idle_micros = 5 * 1000 * 1000;

  /// Epoch cadence of maintenance (bit-flip + scrub repair + replica
  /// restart; 0 = never) and of writer crash-recovery (0 = never;
  /// only honored under kStorage/kMixed).
  int maintenance_every = 4;
  int crash_every = 6;

  /// Point reads sampled per oracle check; full scans run every
  /// scan_every epochs.
  int sample_reads = 24;
  int scan_every = 4;

  /// Mirror sim events (and engine events) into this log. Null: the
  /// journal is still produced, nothing else is logged.
  std::shared_ptr<Logger> info_log;

  /// Oracle self-test hook — see SimClusterOptions.
  bool inject_stale_replica_bug = false;

  /// Fault classes the kHealth campaign cycles through, comma
  /// separated. Supported: "kds" (key-service outage → `kds` detector
  /// critical on the writer) and "partition" (fabric partition →
  /// `replica.catchup` critical on every replica).
  std::string health_fault_classes = "kds,partition";

  /// Per-node tracers + per-node Statistics/metrics (see
  /// SimClusterOptions::observability). Forced on by the kHealth
  /// profile; journals are unaffected either way.
  bool observability = false;
};

struct SimReport {
  bool ok = false;
  /// Human-readable reason when !ok (always names enough to reproduce:
  /// the caller already knows the seed/config).
  std::string failure;

  uint64_t seed = 0;
  uint64_t epochs_run = 0;
  uint64_t ops_acknowledged = 0;
  uint64_t oracle_checks = 0;
  uint64_t crashes = 0;
  uint64_t faults_injected = 0;
  /// Virtual time covered vs wall time burned (the headline ratio).
  uint64_t virtual_micros = 0;
  uint64_t wall_micros = 0;
  /// Expected-state hash at the end (a function of seed + config).
  uint64_t model_hash = 0;

  /// The deterministic journal: one JSON line per logical event, no
  /// timestamps. Byte-identical across runs with equal seed + config.
  std::string journal;

  /// Observability exports (populated only with SimConfig::
  /// observability / the kHealth profile). Trace files carry virtual
  /// timestamps and node names; metrics are per-node Prometheus text.
  /// Neither participates in journal determinism.
  std::vector<std::pair<std::string, std::string>> trace_files;
  std::vector<std::pair<std::string, std::string>> node_metrics;
};

/// Runs one simulated cluster lifetime under virtual time: installs a
/// SimClock process-wide, builds a SimCluster, drives seeded epochs of
/// writes/faults/crashes through a SimScheduler, and checks every
/// epoch against the SimOracle. Returns when the configured duration
/// is covered or the first check fails.
SimReport RunSimulation(const SimConfig& config);

}  // namespace sim
}  // namespace shield

#endif  // SHIELD_SIM_SIM_HARNESS_H_
