// Cluster health plane: detector registration, catch-up lag probes and
// the labeled-gauge refresh behind the "shield.metrics" property
// (util/health.h has the state machine, util/metrics.h the registry).

#include <algorithm>
#include <memory>

#include "env/env.h"
#include "kds/failover_kds.h"
#include "lsm/db_impl.h"
#include "lsm/file_names.h"
#include "util/clock.h"

namespace shield {

namespace {

// Detector thresholds (the table in DESIGN.md "Cluster health plane"
// mirrors these). Stalls are measured between two consecutive
// evaluations, so thresholds are per-interval.
constexpr uint64_t kStallCriticalMicros = 1 * 1000 * 1000;

}  // namespace

void DBImpl::SetupHealthPlane() {
  // Mirror the Statistics tickers/histograms into this DB's labeled
  // registry so "shield.metrics" is encoded by one well-formed encoder.
  // First DB wins when a Statistics object is shared across instances.
  if (options_.statistics != nullptr &&
      options_.statistics->registry() == nullptr) {
    options_.statistics->AttachRegistry(&metrics_, options_.node_name);
  }

  health_monitor_.SetTransitionSink([this](const HealthTransition& t) {
    if (event_logger_ != nullptr && event_logger_->enabled()) {
      JsonWriter w = event_logger_->NewEvent("health_transition");
      if (!options_.node_name.empty()) {
        w.Add("node", options_.node_name);
      }
      w.Add("detector", t.detector);
      w.Add("from", HealthLevelName(t.from));
      w.Add("to", HealthLevelName(t.to));
      w.Add("value", t.value);
      if (!t.detail.empty()) {
        w.Add("detail", t.detail);
      }
      event_logger_->Emit(&w);
    }
  });

  // Write stalls the foreground path actually paid since the last
  // evaluation.
  auto last_stall = std::make_shared<uint64_t>(
      stall_micros_.load(std::memory_order_relaxed));
  health_monitor_.RegisterDetector("write.stall", [this, last_stall] {
    HealthSample s;
    const uint64_t now = stall_micros_.load(std::memory_order_relaxed);
    const uint64_t delta = now >= *last_stall ? now - *last_stall : 0;
    *last_stall = now;
    s.value = static_cast<double>(delta);
    if (delta >= kStallCriticalMicros) {
      s.level = HealthLevel::kCritical;
      s.detail = "writers stalled >= 1s since last evaluation";
    } else if (delta > 0) {
      s.level = HealthLevel::kWarn;
      s.detail = "writers stalled since last evaluation";
    }
    return s;
  });

  // Level-0 / compaction debt against the stall ladder the write path
  // enforces.
  health_monitor_.RegisterDetector("lsm.l0", [this] {
    HealthSample s;
    int files = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (versions_ != nullptr) {
        files = versions_->NumLevelFiles(0);
      }
    }
    s.value = files;
    if (files >= options_.level0_stop_writes_trigger) {
      s.level = HealthLevel::kCritical;
      s.detail = "level-0 at stop-writes trigger";
    } else if (files >= options_.level0_slowdown_writes_trigger) {
      s.level = HealthLevel::kWarn;
      s.detail = "level-0 at slowdown trigger";
    }
    return s;
  });

  // Scrub backlog: corruptions detected that repair has not resolved.
  health_monitor_.RegisterDetector("scrub.backlog", [this] {
    HealthSample s;
    const uint64_t detected =
        scrub_corruptions_detected_.load(std::memory_order_relaxed);
    const uint64_t repaired =
        scrub_repaired_files_.load(std::memory_order_relaxed);
    const uint64_t quarantined =
        scrub_quarantined_files_.load(std::memory_order_relaxed);
    const uint64_t backlog = detected >= repaired ? detected - repaired : 0;
    s.value = static_cast<double>(backlog);
    if (backlog > 0 && quarantined > repaired) {
      s.level = HealthLevel::kCritical;
      s.detail = "quarantined files outstanding";
    } else if (backlog > 0) {
      s.level = HealthLevel::kWarn;
      s.detail = "corruptions awaiting repair";
    }
    return s;
  });

  // KDS reachability: one single-attempt probe for a DEK id that never
  // exists. A definitive answer (NotFound above all) proves the key
  // plane is answering; a transient failure means new DEKs cannot be
  // created — flushes and compactions are about to wedge. The breaker
  // state of a FailoverKds front end downgrades to warn once requests
  // flow again but an endpoint is still open.
  health_monitor_.RegisterDetector("kds", [this] {
    HealthSample s;
    if (kds_ == nullptr) {
      s.detail = "no KDS configured";
      return s;
    }
    Dek dek;
    const Status probe =
        kds_->GetDek(options_.encryption.server_id, DekId(), &dek);
    const bool definitive = probe.ok() || probe.IsNotFound() ||
                            probe.IsPermissionDenied() ||
                            probe.IsNotSupported() || probe.IsCorruption();
    if (!definitive) {
      s.level = HealthLevel::kCritical;
      s.value = 1;
      s.detail = "KDS probe failed: " + probe.ToString();
      return s;
    }
    if (auto* failover = dynamic_cast<FailoverKds*>(kds_.get())) {
      int open = 0;
      for (int i = 0; i < failover->num_endpoints(); i++) {
        if (failover->endpoint_state(i) !=
            FailoverKds::BreakerState::kClosed) {
          open++;
        }
      }
      s.value = open;
      if (open == failover->num_endpoints()) {
        s.level = HealthLevel::kCritical;
        s.detail = "every KDS endpoint breaker is open";
      } else if (open > 0) {
        s.level = HealthLevel::kWarn;
        s.detail = "KDS endpoint breaker open";
      }
    }
    return s;
  });

  // DEK rotation stuck: a persisted rotation manifest still owes files
  // but no pass is running to finish it.
  health_monitor_.RegisterDetector("dek.rotation", [this] {
    HealthSample s;
    const uint64_t pending =
        rotation_pending_files_.load(std::memory_order_relaxed);
    s.value = static_cast<double>(pending);
    if (pending > 0 &&
        !rotation_running_.load(std::memory_order_acquire)) {
      s.level = HealthLevel::kWarn;
      s.detail = "rotation manifest pending with no active pass";
    }
    return s;
  });

  // Replica catch-up: how far behind the primary's published manifest
  // this read-only instance is. Failing to even read the shared
  // CURRENT file (partitioned from storage) is the critical edge.
  health_monitor_.RegisterDetector("replica.catchup", [this] {
    HealthSample s;
    if (!read_only_) {
      return s;
    }
    uint64_t lag_bytes = 0;
    uint64_t lag_generations = 0;
    const Status probe = ComputeCatchupLag(&lag_bytes, &lag_generations);
    if (!probe.ok()) {
      s.level = HealthLevel::kCritical;
      s.value = 1;
      s.detail = "shared storage unreachable: " + probe.ToString();
      return s;
    }
    s.value = static_cast<double>(lag_bytes);
    if (lag_generations > 0) {
      s.level = HealthLevel::kWarn;
      s.detail = "behind primary manifest";
    }
    return s;
  });

  if (options_.health_interval_micros > 0) {
    health_monitor_.StartBackground(options_.health_interval_micros);
  }
}

Status DBImpl::EvaluateHealth(std::vector<HealthTransition>* transitions) {
  std::vector<HealthTransition> t = health_monitor_.Evaluate();
  if (transitions != nullptr) {
    *transitions = std::move(t);
  }
  return Status::OK();
}

Status DBImpl::ComputeCatchupLag(uint64_t* lag_bytes,
                                 uint64_t* lag_generations) {
  *lag_bytes = 0;
  *lag_generations = 0;
  if (!read_only_ || files_ == nullptr) {
    return Status::OK();
  }
  Env* env = files_->env();
  std::string current;
  Status s = ReadFileToString(env, CurrentFileName(dbname_), &current);
  if (!s.ok()) {
    return s;
  }
  if (current.empty() || current.back() != '\n') {
    // The primary is mid-publish; report no measurable lag this probe.
    return Status::OK();
  }
  current.resize(current.size() - 1);
  uint64_t number = 0;
  DbFileType type;
  if (!ParseFileName(current, &number, &type) ||
      type != DbFileType::kDescriptorFile) {
    return Status::OK();
  }
  uint64_t size = 0;
  s = env->GetFileSize(dbname_ + "/" + current, &size);
  if (!s.ok()) {
    return s;
  }
  const uint64_t applied =
      catchup_applied_manifest_.load(std::memory_order_acquire);
  const uint64_t applied_bytes =
      catchup_applied_manifest_bytes_.load(std::memory_order_acquire);
  if (number != applied) {
    // The primary rolled to a fresh manifest we have not applied: the
    // whole new descriptor is unapplied state.
    *lag_generations = number > applied ? number - applied : 1;
    *lag_bytes = size;
  } else if (size > applied_bytes) {
    // Same manifest, grown: the primary appended version edits (flush
    // or compaction publishes) past our applied prefix.
    *lag_generations = 1;
    *lag_bytes = size - applied_bytes;
  }
  catchup_lag_bytes_.store(*lag_bytes, std::memory_order_release);
  catchup_lag_generations_.store(*lag_generations, std::memory_order_release);
  return Status::OK();
}

void DBImpl::RecordCatchupApplied() {
  if (!read_only_ || files_ == nullptr) {
    return;
  }
  Env* env = files_->env();
  std::string current;
  if (!ReadFileToString(env, CurrentFileName(dbname_), &current).ok() ||
      current.empty() || current.back() != '\n') {
    return;
  }
  current.resize(current.size() - 1);
  uint64_t number = 0;
  DbFileType type;
  if (!ParseFileName(current, &number, &type) ||
      type != DbFileType::kDescriptorFile) {
    return;
  }
  uint64_t size = 0;
  if (!env->GetFileSize(dbname_ + "/" + current, &size).ok()) {
    return;
  }
  catchup_applied_manifest_.store(number, std::memory_order_release);
  catchup_applied_manifest_bytes_.store(size, std::memory_order_release);
  catchup_lag_bytes_.store(0, std::memory_order_release);
  catchup_lag_generations_.store(0, std::memory_order_release);
}

void DBImpl::RefreshMetricsGauges() {
  MetricLabels base;
  if (!options_.node_name.empty()) {
    base.Set("node", options_.node_name);
  }
  for (int level = 0; level < versions_->num_levels(); level++) {
    MetricLabels labels = base;
    labels.Set("level", std::to_string(level));
    metrics_
        .GetGauge("shield_level_files", "Live SST files per LSM level",
                  labels)
        ->Set(static_cast<double>(versions_->NumLevelFiles(level)));
    metrics_
        .GetGauge("shield_level_bytes", "Live SST bytes per LSM level",
                  labels)
        ->Set(static_cast<double>(versions_->NumLevelBytes(level)));
  }
  if (read_only_) {
    metrics_
        .GetGauge("shield_replica_catchup_lag_bytes",
                  "Manifest bytes published by the primary but not yet "
                  "applied by this replica",
                  base)
        ->Set(static_cast<double>(
            catchup_lag_bytes_.load(std::memory_order_relaxed)));
    metrics_
        .GetGauge("shield_replica_catchup_lag_generations",
                  "Manifest generations this replica is behind the primary",
                  base)
        ->Set(static_cast<double>(
            catchup_lag_generations_.load(std::memory_order_relaxed)));
  }
  health_monitor_.ExportGauges(&metrics_, base);
}

}  // namespace shield
