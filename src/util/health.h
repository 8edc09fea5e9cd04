#ifndef SHIELD_UTIL_HEALTH_H_
#define SHIELD_UTIL_HEALTH_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "util/metrics.h"

namespace shield {

/// Detector verdict severity. Ordered: comparisons like `level >=
/// kWarn` are meaningful.
enum class HealthLevel : int {
  kOk = 0,
  kWarn = 1,
  kCritical = 2,
};

const char* HealthLevelName(HealthLevel level);
/// Parses "ok"/"warn"/"critical"; false on anything else.
bool ParseHealthLevel(const std::string& name, HealthLevel* out);

/// One detector's verdict at one evaluation. `value` is the
/// detector-specific magnitude that drove the verdict (stall micros,
/// L0 file count, lag bytes, breaker state...), `detail` a short
/// operator-facing reason.
struct HealthSample {
  HealthLevel level = HealthLevel::kOk;
  double value = 0;
  std::string detail;
};

/// Emitted whenever a detector's level changes between evaluations
/// (including the recovery edge back to ok).
struct HealthTransition {
  std::string detector;
  HealthLevel from = HealthLevel::kOk;
  HealthLevel to = HealthLevel::kOk;
  double value = 0;
  std::string detail;
};

/// Last-evaluation state of one detector.
struct HealthStatus {
  std::string detector;
  HealthLevel level = HealthLevel::kOk;
  double value = 0;
  std::string detail;
};

/// Evaluates a set of registered detectors on demand (the DB also
/// calls Evaluate() from a PeriodicTask) and tracks per-detector level
/// transitions.
/// Detectors are pure sampling closures supplied by the owner (the DB
/// wires stall/L0/scrub/KDS/rotation/replica probes in); the monitor
/// owns only the ok/warn/critical state machine:
///
///     ok ⇄ warn ⇄ critical   (any direct edge is legal; every edge
///     ok ⇄ critical           is reported as one HealthTransition)
///
/// Thread safe. Evaluate() serializes concurrent callers (on a
/// dedicated evaluation mutex), so detector closures never run
/// concurrently with each other — but they run with the monitor's
/// state lock RELEASED, so detectors may take their owner's locks and
/// do blocking I/O, and status reads (CurrentStatus/Overall/ToJson/
/// ExportGauges) never block on a slow detector.
class HealthMonitor {
 public:
  using Detector = std::function<HealthSample()>;
  using TransitionSink = std::function<void(const HealthTransition&)>;

  HealthMonitor() = default;

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Registration order is evaluation and report order.
  void RegisterDetector(const std::string& name, Detector detector);

  /// Called (outside the monitor's locks) with every transition an
  /// evaluation produced — the DB points this at its event logger.
  void SetTransitionSink(TransitionSink sink);

  /// Runs every detector once; returns the transitions this pass
  /// produced (also forwarded to the sink).
  std::vector<HealthTransition> Evaluate();

  std::vector<HealthStatus> CurrentStatus() const;
  /// Worst current detector level (ok when nothing is registered).
  HealthLevel Overall() const;
  uint64_t evaluations() const;

  /// `{"overall":"ok","detectors":[{"name":...,"level":...,
  /// "value":...,"detail":...},...]}` — the `shield.health` property.
  std::string ToJson() const;

  /// Mirrors current levels into `shield_health_level{detector=...}`
  /// gauges (0/1/2) plus one `shield_health_overall`.
  void ExportGauges(MetricsRegistry* registry, const MetricLabels& base) const;

 private:
  struct DetectorState {
    std::string name;
    Detector fn;
    HealthLevel level = HealthLevel::kOk;
    double value = 0;
    std::string detail;
    bool evaluated = false;
  };

  // Lock order: eval_mu_ before mu_. mu_ guards plain state copies
  // only and is never held across a detector call or any other
  // blocking work, so holding an outside lock (the DB mutex) while
  // taking mu_ cannot deadlock against an evaluation.
  mutable std::mutex eval_mu_;
  mutable std::mutex mu_;
  std::vector<DetectorState> detectors_;
  TransitionSink sink_;
  uint64_t evaluations_ = 0;
};

}  // namespace shield

#endif  // SHIELD_UTIL_HEALTH_H_
