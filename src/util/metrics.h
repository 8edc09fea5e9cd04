#ifndef SHIELD_UTIL_METRICS_H_
#define SHIELD_UTIL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/histogram.h"

namespace shield {

/// A sorted label set attached to one instrument of a metric family,
/// e.g. {node="writer", subsystem="io"}. Keys are sorted on
/// construction so equal sets encode identically regardless of the
/// order a call site lists them in.
class MetricLabels {
 public:
  MetricLabels() = default;
  MetricLabels(
      std::initializer_list<std::pair<std::string, std::string>> labels);

  void Set(const std::string& key, const std::string& value);

  bool empty() const { return kv_.empty(); }
  const std::vector<std::pair<std::string, std::string>>& pairs() const {
    return kv_;
  }

  /// Canonical Prometheus form with escaped values:
  /// `{a="1",b="x\"y"}`; empty string for an empty set.
  std::string Encode() const;

 private:
  std::vector<std::pair<std::string, std::string>> kv_;  // sorted by key
};

/// Escapes a label value for the Prometheus text format: backslash,
/// double quote and newline become \\, \" and \n.
std::string EscapeLabelValue(const std::string& value);

/// Escapes a HELP string: backslash and newline (quotes are legal in
/// help text).
std::string EscapeHelpText(const std::string& help);

/// Monotonic counter. Add() is the normal path; Set() copies in a
/// count kept elsewhere (Statistics renders its tickers that way).
class Counter {
 public:
  void Add(uint64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  void Set(uint64_t value) { v_.store(value, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Point-in-time gauge (level, backlog, lag, state).
class Gauge {
 public:
  void Set(double value) { v_.store(value, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Point-in-time percentile summary of a histogram (cumulative or one
/// sliding window).
struct HistogramSnapshot {
  uint64_t count = 0;
  double sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  double p50 = 0;
  double p99 = 0;
  double p999 = 0;
};

/// A histogram with sliding-window snapshots: samples land in 5-second
/// time slots (process clock — virtual under the simulator); slots
/// older than the ring are folded into an "ancient" accumulator, so
/// the merge of ancient + every slot is exactly the full history (the
/// cumulative snapshot loses nothing to windowing), while Snapshot()
/// over a 10 s or 60 s window yields real SLO p99/p999 over recent
/// traffic only. Thread safe.
class WindowedHistogram {
 public:
  static constexpr uint64_t kSlotMicros = 5ull * 1000 * 1000;
  static constexpr int kNumSlots = 13;  // covers 60 s + one spare slot
  static constexpr uint64_t kWindowShortMicros = 10ull * 1000 * 1000;
  static constexpr uint64_t kWindowLongMicros = 60ull * 1000 * 1000;
  /// Marks a ring slot with no live samples. Epoch 0 is legal (a clock
  /// starting near zero), so the sentinel must be a value NowMicros()
  /// can never reach.
  static constexpr uint64_t kUnusedSlotEpoch = ~0ull;

  WindowedHistogram() {
    for (auto& e : slot_epoch_) e = kUnusedSlotEpoch;
  }

  void Record(uint64_t value);

  /// Drops every sample.
  void Clear();

  /// Snapshot over the trailing `window_micros`; 0 = full history
  /// (ancient + every live slot — exact, not approximate).
  HistogramSnapshot Snapshot(uint64_t window_micros) const;

  /// Merges the selected window into `out` (cleared first); 0 = full
  /// history. Exposed so tests can compare full bucket contents.
  void MergeWindow(uint64_t window_micros, Histogram* out) const;

 private:
  void RotateLocked(uint64_t now_micros) const;

  mutable std::mutex mu_;
  mutable Histogram slots_[kNumSlots];
  mutable uint64_t slot_epoch_[kNumSlots];  // now / kSlotMicros, or kUnusedSlotEpoch
  mutable Histogram ancient_;
};

/// Appends one summary family in Prometheus text format: per label
/// set (`instruments` pairs an encoded MetricLabels with its
/// histogram) the full-history p50/p99/p999, `_sum` and `_count`, then
/// a `<name>_window` gauge family with the 10s/1m p99 and p999.
void AppendSummaryFamily(
    const std::string& name, const std::string& help,
    const std::vector<std::pair<std::string, const WindowedHistogram*>>&
        instruments,
    std::string* out);

/// What kind of instrument a metric family holds.
enum class MetricType { kCounter, kGauge, kHistogram };

/// A labeled metrics registry: families keyed by metric name, each
/// holding one instrument per label set. Instruments are created on
/// first Get* and live as long as the registry (returned pointers are
/// stable). ToPrometheusText() renders every family as well-formed
/// Prometheus text exposition (format 0.0.4): escaped HELP, one TYPE
/// per family, `_total` on counters, summaries with cumulative
/// quantiles plus `<name>_window` gauges for the 10s/1m sliding
/// windows. Thread safe.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// `name` is the full Prometheus family name without the `_total`
  /// suffix (the encoder appends it for counters). `help` is recorded
  /// on first registration; later calls may pass "".
  Counter* GetCounter(const std::string& name, const std::string& help,
                      const MetricLabels& labels);
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const MetricLabels& labels);
  WindowedHistogram* GetHistogram(const std::string& name,
                                  const std::string& help,
                                  const MetricLabels& labels);

  std::string ToPrometheusText() const;

 private:
  struct Instrument {
    std::string encoded_labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<WindowedHistogram> histogram;
  };
  struct Family {
    MetricType type = MetricType::kCounter;
    std::string help;
    std::map<std::string, std::unique_ptr<Instrument>> instruments;
  };

  Instrument* GetInstrument(const std::string& name, const std::string& help,
                            const MetricLabels& labels, MetricType type);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
};

}  // namespace shield

#endif  // SHIELD_UTIL_METRICS_H_
