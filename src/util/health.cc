#include "util/health.h"

#include <cstdio>

namespace shield {

const char* HealthLevelName(HealthLevel level) {
  switch (level) {
    case HealthLevel::kOk:
      return "ok";
    case HealthLevel::kWarn:
      return "warn";
    case HealthLevel::kCritical:
      return "critical";
  }
  return "unknown";
}

bool ParseHealthLevel(const std::string& name, HealthLevel* out) {
  if (name == "ok") {
    *out = HealthLevel::kOk;
  } else if (name == "warn") {
    *out = HealthLevel::kWarn;
  } else if (name == "critical") {
    *out = HealthLevel::kCritical;
  } else {
    return false;
  }
  return true;
}

void HealthMonitor::RegisterDetector(const std::string& name,
                                     Detector detector) {
  std::lock_guard<std::mutex> lock(mu_);
  DetectorState state;
  state.name = name;
  state.fn = std::move(detector);
  detectors_.push_back(std::move(state));
}

void HealthMonitor::SetTransitionSink(TransitionSink sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sink_ = std::move(sink);
}

std::vector<HealthTransition> HealthMonitor::Evaluate() {
  // eval_mu_ serializes evaluations (detector closures never run
  // concurrently with each other), but detectors must run with mu_
  // RELEASED: they take their owner's locks (the DB mutex) and do real
  // I/O (KDS probe, manifest reads), while status readers — some of
  // which already hold those owner locks, e.g. ExportGauges during a
  // property read — take mu_. Running detectors under mu_ is an ABBA
  // deadlock with the DB mutex and blocks every status read on
  // detector I/O.
  std::lock_guard<std::mutex> eval_lock(eval_mu_);
  std::vector<Detector> fns;
  TransitionSink sink;
  {
    std::lock_guard<std::mutex> lock(mu_);
    evaluations_++;
    sink = sink_;
    fns.reserve(detectors_.size());
    for (const auto& d : detectors_) {
      fns.push_back(d.fn);
    }
  }
  std::vector<HealthSample> samples;
  samples.reserve(fns.size());
  for (auto& fn : fns) {
    samples.push_back(fn());
  }
  std::vector<HealthTransition> transitions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Registration only appends, so index i still names the detector
    // whose closure produced samples[i] even if more were registered
    // while we ran.
    const size_t n =
        samples.size() < detectors_.size() ? samples.size() : detectors_.size();
    for (size_t i = 0; i < n; i++) {
      DetectorState& d = detectors_[i];
      HealthSample& sample = samples[i];
      if (d.evaluated && sample.level != d.level) {
        HealthTransition t;
        t.detector = d.name;
        t.from = d.level;
        t.to = sample.level;
        t.value = sample.value;
        t.detail = sample.detail;
        transitions.push_back(std::move(t));
      }
      d.level = sample.level;
      d.value = sample.value;
      d.detail = std::move(sample.detail);
      d.evaluated = true;
    }
  }
  if (sink) {
    for (const auto& t : transitions) {
      sink(t);
    }
  }
  return transitions;
}

std::vector<HealthStatus> HealthMonitor::CurrentStatus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<HealthStatus> out;
  out.reserve(detectors_.size());
  for (const auto& d : detectors_) {
    HealthStatus s;
    s.detector = d.name;
    s.level = d.level;
    s.value = d.value;
    s.detail = d.detail;
    out.push_back(std::move(s));
  }
  return out;
}

HealthLevel HealthMonitor::Overall() const {
  std::lock_guard<std::mutex> lock(mu_);
  HealthLevel worst = HealthLevel::kOk;
  for (const auto& d : detectors_) {
    if (static_cast<int>(d.level) > static_cast<int>(worst)) {
      worst = d.level;
    }
  }
  return worst;
}

uint64_t HealthMonitor::evaluations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evaluations_;
}

namespace {

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendJsonNumber(std::string* out, double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<int64_t>(v)) && v < 1e15 &&
      v > -1e15) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%g", v);
  }
  out->append(buf);
}

}  // namespace

std::string HealthMonitor::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  HealthLevel worst = HealthLevel::kOk;
  for (const auto& d : detectors_) {
    if (static_cast<int>(d.level) > static_cast<int>(worst)) {
      worst = d.level;
    }
  }
  std::string out = "{\"overall\":";
  AppendJsonString(&out, HealthLevelName(worst));
  out.append(",\"detectors\":[");
  bool first = true;
  for (const auto& d : detectors_) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    out.append("{\"name\":");
    AppendJsonString(&out, d.name);
    out.append(",\"level\":");
    AppendJsonString(&out, HealthLevelName(d.level));
    out.append(",\"value\":");
    AppendJsonNumber(&out, d.value);
    out.append(",\"detail\":");
    AppendJsonString(&out, d.detail);
    out.push_back('}');
  }
  out.append("]}");
  return out;
}

void HealthMonitor::ExportGauges(MetricsRegistry* registry,
                                 const MetricLabels& base) const {
  // Copy status first and touch the registry with mu_ released:
  // callers may hold their own locks (the DB mutex during a property
  // read), so mu_ must only ever guard plain state copies here.
  const std::vector<HealthStatus> status = CurrentStatus();
  HealthLevel worst = HealthLevel::kOk;
  for (const auto& d : status) {
    MetricLabels labels = base;
    labels.Set("detector", d.detector);
    registry
        ->GetGauge("shield_health_level",
                   "Detector level: 0 ok, 1 warn, 2 critical", labels)
        ->Set(static_cast<double>(static_cast<int>(d.level)));
    if (static_cast<int>(d.level) > static_cast<int>(worst)) {
      worst = d.level;
    }
  }
  registry
      ->GetGauge("shield_health_overall",
                 "Worst detector level: 0 ok, 1 warn, 2 critical", base)
      ->Set(static_cast<double>(static_cast<int>(worst)));
}

}  // namespace shield
