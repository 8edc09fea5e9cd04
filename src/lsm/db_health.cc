// Cluster health plane: detector registration, catch-up lag probes and
// the DB's own gauge families in the "shield.metrics" property
// (util/health.h has the state machine, util/metrics.h the text
// encoders).

#include <algorithm>
#include <memory>

#include "env/env.h"
#include "kds/failover_kds.h"
#include "lsm/db_impl.h"
#include "lsm/file_names.h"
#include "util/clock.h"
#include "util/statistics.h"

namespace shield {

namespace {

// Detector thresholds (the table in DESIGN.md "Cluster health plane"
// mirrors these). Stalls are measured between two consecutive
// evaluations, so thresholds are per-interval.
constexpr uint64_t kStallCriticalMicros = 1 * 1000 * 1000;
// Table-cache misses per lookup, over at least this many lookups. Past
// warm-up an open table stays open, so misses are new files only.
constexpr double kTableCacheMissWarnRatio = 0.1;
constexpr uint64_t kTableCacheMinLookups = 1000;

/// Reads the manifest position the primary last published: the
/// descriptor CURRENT names and that descriptor's size. Returns OK
/// with `*published` false while CURRENT is mid-publish (no trailing
/// newline yet) or names no descriptor.
Status ReadPublishedManifest(Env* env, const std::string& dbname,
                             bool* published, ManifestPosition* pos) {
  *published = false;
  std::string current;
  Status s = ReadFileToString(env, CurrentFileName(dbname), &current);
  if (!s.ok() || current.empty() || current.back() != '\n') {
    return s;
  }
  current.resize(current.size() - 1);
  DbFileType type;
  if (!ParseFileName(current, &pos->manifest_number, &type) ||
      type != DbFileType::kDescriptorFile) {
    return Status::OK();
  }
  s = env->GetFileSize(dbname + "/" + current, &pos->offset);
  *published = s.ok();
  return s;
}

}  // namespace

void DBImpl::SetupHealthPlane() {
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

  // Table cache: the share of table lookups that had to open the SST
  // since the last evaluation. A cache that holds nothing shows here as
  // about one open per Get.
  struct TableCacheCounts {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };
  auto table_cache_counts = [this] {
    TableCacheCounts c;
    if (Statistics* stats = options_.statistics.get()) {
      c.hits = stats->GetTickerCount(Tickers::kLsmTableCacheHit);
      c.misses = stats->GetTickerCount(Tickers::kLsmTableCacheMiss);
    }
    return c;
  };
  auto last_table_cache =
      std::make_shared<TableCacheCounts>(table_cache_counts());
  health_monitor_.RegisterDetector(
      "lsm.table_cache", [table_cache_counts, last_table_cache] {
        HealthSample s;
        const TableCacheCounts now = table_cache_counts();
        // A reset Statistics counts from zero again.
        auto since = [](uint64_t cur, uint64_t prev) {
          return cur >= prev ? cur - prev : cur;
        };
        const uint64_t hits = since(now.hits, last_table_cache->hits);
        const uint64_t misses = since(now.misses, last_table_cache->misses);
        *last_table_cache = now;
        if (hits + misses < kTableCacheMinLookups) {
          return s;
        }
        s.value = static_cast<double>(misses) / (hits + misses);
        if (s.value > kTableCacheMissWarnRatio) {
          s.level = HealthLevel::kWarn;
          s.detail = "table cache misses > 10% of lookups";
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

  health_task_.Start(options_.health_interval_micros,
                     [this] { health_monitor_.Evaluate(); });
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
  bool published = false;
  ManifestPosition pos;
  Status s = ReadPublishedManifest(files_->env(), dbname_, &published, &pos);
  if (!s.ok() || !published) {
    // Unreachable storage is the error; a primary mid-publish is no
    // measurable lag this probe.
    return s;
  }
  const uint64_t applied =
      catchup_applied_manifest_.load(std::memory_order_acquire);
  const uint64_t applied_bytes =
      catchup_applied_manifest_bytes_.load(std::memory_order_acquire);
  if (pos.manifest_number != applied) {
    // The primary rolled to a fresh manifest we have not applied: the
    // whole new descriptor is unapplied state.
    *lag_generations =
        pos.manifest_number > applied ? pos.manifest_number - applied : 1;
    *lag_bytes = pos.offset;
  } else if (pos.offset > applied_bytes) {
    // Same manifest, grown: the primary appended version edits (flush
    // or compaction publishes) past our applied prefix.
    *lag_generations = 1;
    *lag_bytes = pos.offset - applied_bytes;
  }
  catchup_lag_bytes_.store(*lag_bytes, std::memory_order_release);
  catchup_lag_generations_.store(*lag_generations, std::memory_order_release);
  return Status::OK();
}

void DBImpl::RecordCatchupApplied() {
  if (!read_only_ || files_ == nullptr) {
    return;
  }
  bool published = false;
  ManifestPosition pos;
  if (!ReadPublishedManifest(files_->env(), dbname_, &published, &pos).ok() ||
      !published) {
    return;
  }
  catchup_applied_manifest_.store(pos.manifest_number,
                                  std::memory_order_release);
  catchup_applied_manifest_bytes_.store(pos.offset, std::memory_order_release);
  catchup_lag_bytes_.store(0, std::memory_order_release);
  catchup_lag_generations_.store(0, std::memory_order_release);
}

void DBImpl::AppendMetricsGauges(std::string* out) {
  MetricLabels base;
  if (!options_.node_name.empty()) {
    base.Set("node", options_.node_name);
  }
  std::vector<std::pair<int, int64_t>> levels;  // files, bytes per level
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (int level = 0; level < versions_->num_levels(); level++) {
      levels.emplace_back(versions_->NumLevelFiles(level),
                          versions_->NumLevelBytes(level));
    }
  }
  std::vector<std::pair<std::string, double>> files, bytes;
  for (size_t level = 0; level < levels.size(); level++) {
    MetricLabels labels = base;
    labels.Set("level", std::to_string(level));
    files.emplace_back(labels.Encode(), levels[level].first);
    bytes.emplace_back(labels.Encode(), levels[level].second);
  }
  health_monitor_.AppendGauges(base, out);
  AppendGaugeFamily("shield_level_bytes", "Live SST bytes per LSM level",
                    std::move(bytes), out);
  AppendGaugeFamily("shield_level_files", "Live SST files per LSM level",
                    std::move(files), out);
  if (read_only_) {
    const double lag_bytes =
        catchup_lag_bytes_.load(std::memory_order_relaxed);
    const double lag_generations =
        catchup_lag_generations_.load(std::memory_order_relaxed);
    AppendGaugeFamily("shield_replica_catchup_lag_bytes",
                      "Manifest bytes published by the primary but not yet "
                      "applied by this replica",
                      {{base.Encode(), lag_bytes}}, out);
    AppendGaugeFamily("shield_replica_catchup_lag_generations",
                      "Manifest generations this replica is behind the "
                      "primary",
                      {{base.Encode(), lag_generations}}, out);
  }
}

}  // namespace shield
