#ifndef SHIELD_UTIL_METRICS_H_
#define SHIELD_UTIL_METRICS_H_

#include <cstdint>
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

// Prometheus text exposition (format 0.0.4). A counter or gauge call
// appends one family: an escaped `# HELP` line (omitted when `help` is
// empty), one `# TYPE` line, then its samples. A sample pairs an
// encoded MetricLabels with its value; samples come out in encoded
// label order, and a family without samples appends nothing. Callers
// append families in name order, so a scrape lists them sorted.

/// A counter family: `<name>_total` samples, exact to the last count.
void AppendCounterFamily(const std::string& name, const std::string& help,
                         std::vector<std::pair<std::string, uint64_t>> samples,
                         std::string* out);

/// A gauge family (level, backlog, lag, state).
void AppendGaugeFamily(const std::string& name, const std::string& help,
                       std::vector<std::pair<std::string, double>> samples,
                       std::string* out);

/// Appends one summary family in Prometheus text format: per label
/// set (`instruments` pairs an encoded MetricLabels with its
/// histogram) the full-history p50/p99/p999, `_sum` and `_count`, then
/// a `<name>_window` gauge family with the 10s/1m p99 and p999.
void AppendSummaryFamily(
    const std::string& name, const std::string& help,
    const std::vector<std::pair<std::string, const WindowedHistogram*>>&
        instruments,
    std::string* out);

}  // namespace shield

#endif  // SHIELD_UTIL_METRICS_H_
