#include "util/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "util/clock.h"

namespace shield {

MetricLabels::MetricLabels(
    std::initializer_list<std::pair<std::string, std::string>> labels) {
  for (const auto& kv : labels) {
    Set(kv.first, kv.second);
  }
}

void MetricLabels::Set(const std::string& key, const std::string& value) {
  for (auto& kv : kv_) {
    if (kv.first == key) {
      kv.second = value;
      return;
    }
  }
  kv_.emplace_back(key, value);
  std::sort(kv_.begin(), kv_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out.append("\\\\");
        break;
      case '"':
        out.append("\\\"");
        break;
      case '\n':
        out.append("\\n");
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string EscapeHelpText(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (char c : help) {
    switch (c) {
      case '\\':
        out.append("\\\\");
        break;
      case '\n':
        out.append("\\n");
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string MetricLabels::Encode() const {
  if (kv_.empty()) {
    return std::string();
  }
  std::string out = "{";
  bool first = true;
  for (const auto& kv : kv_) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    out.append(kv.first).append("=\"").append(EscapeLabelValue(kv.second));
    out.push_back('"');
  }
  out.push_back('}');
  return out;
}

void WindowedHistogram::RotateLocked(uint64_t now_micros) const {
  const uint64_t epoch = now_micros / kSlotMicros;
  for (int i = 0; i < kNumSlots; i++) {
    // A slot is live only while its epoch is recent enough to still be
    // addressable by the ring; anything older is folded into the
    // ancient accumulator so full history stays exact.
    if (slot_epoch_[i] != kUnusedSlotEpoch &&
        slot_epoch_[i] + kNumSlots <= epoch) {
      if (slots_[i].Count() > 0) {
        ancient_.Merge(slots_[i]);
        slots_[i].Clear();
      }
      slot_epoch_[i] = kUnusedSlotEpoch;
    }
  }
}

void WindowedHistogram::Record(uint64_t value) {
  const uint64_t now = NowMicros();
  const uint64_t epoch = now / kSlotMicros;
  const int slot = static_cast<int>(epoch % kNumSlots);
  std::lock_guard<std::mutex> lock(mu_);
  RotateLocked(now);
  if (slot_epoch_[slot] != epoch) {
    if (slot_epoch_[slot] != kUnusedSlotEpoch && slots_[slot].Count() > 0) {
      ancient_.Merge(slots_[slot]);
    }
    slots_[slot].Clear();
    slot_epoch_[slot] = epoch;
  }
  slots_[slot].Add(value);
}

void WindowedHistogram::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (int i = 0; i < kNumSlots; i++) {
    slots_[i].Clear();
    slot_epoch_[i] = kUnusedSlotEpoch;
  }
  ancient_.Clear();
}

void WindowedHistogram::MergeWindow(uint64_t window_micros,
                                    Histogram* out) const {
  out->Clear();
  const uint64_t now = NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  if (window_micros == 0) {
    out->Merge(ancient_);
    for (int i = 0; i < kNumSlots; i++) {
      out->Merge(slots_[i]);
    }
    return;
  }
  const uint64_t cutoff =
      now >= window_micros ? now - window_micros : 0;
  for (int i = 0; i < kNumSlots; i++) {
    if (slot_epoch_[i] == kUnusedSlotEpoch) {
      continue;
    }
    // Include a slot if any part of it overlaps the trailing window.
    const uint64_t slot_end = (slot_epoch_[i] + 1) * kSlotMicros;
    if (slot_end > cutoff) {
      out->Merge(slots_[i]);
    }
  }
}

HistogramSnapshot WindowedHistogram::Snapshot(uint64_t window_micros) const {
  Histogram merged;
  MergeWindow(window_micros, &merged);
  HistogramSnapshot snap;
  snap.count = merged.Count();
  if (snap.count == 0) {
    return snap;
  }
  snap.sum = merged.Average() * static_cast<double>(merged.Count());
  snap.min = merged.Min();
  snap.max = merged.Max();
  snap.p50 = merged.Percentile(50.0);
  snap.p99 = merged.Percentile(99.0);
  snap.p999 = merged.Percentile(99.9);
  return snap;
}

namespace {

void AppendValue(std::string* out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
}

void AppendValue(std::string* out, double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<int64_t>(v)) &&
      v < 1e15 && v > -1e15) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<int64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%g", v);
  }
  out->append(buf);
}

/// `{a="1"}` + extra pairs -> `{a="1",quantile="0.5"}`. `extra` values
/// are already escaped-safe literals.
std::string MergeLabels(const std::string& encoded,
                        std::initializer_list<std::pair<const char*, const char*>>
                            extra) {
  std::string out;
  if (encoded.empty()) {
    out.push_back('{');
  } else {
    out.append(encoded.data(), encoded.size() - 1);  // drop trailing '}'
    out.push_back(',');
  }
  bool first = true;
  for (const auto& kv : extra) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    out.append(kv.first).append("=\"").append(kv.second).append("\"");
  }
  out.push_back('}');
  return out;
}

void AppendHelpAndType(const std::string& name, const std::string& help,
                       const char* type, std::string* out) {
  if (!help.empty()) {
    out->append("# HELP ").append(name).append(" ").append(
        EscapeHelpText(help));
    out->push_back('\n');
  }
  out->append("# TYPE ").append(name).append(" ").append(type);
  out->push_back('\n');
}

template <typename Value>
void AppendFamily(const std::string& name, const std::string& help,
                  const char* type,
                  std::vector<std::pair<std::string, Value>> samples,
                  std::string* out) {
  if (samples.empty()) {
    return;
  }
  std::sort(samples.begin(), samples.end());
  AppendHelpAndType(name, help, type, out);
  for (const auto& [encoded, value] : samples) {
    out->append(name).append(encoded).push_back(' ');
    AppendValue(out, value);
    out->push_back('\n');
  }
}

}  // namespace

void AppendCounterFamily(const std::string& name, const std::string& help,
                         std::vector<std::pair<std::string, uint64_t>> samples,
                         std::string* out) {
  AppendFamily(name + "_total", help, "counter", std::move(samples), out);
}

void AppendGaugeFamily(const std::string& name, const std::string& help,
                       std::vector<std::pair<std::string, double>> samples,
                       std::string* out) {
  AppendFamily(name, help, "gauge", std::move(samples), out);
}

void AppendSummaryFamily(
    const std::string& name, const std::string& help,
    const std::vector<std::pair<std::string, const WindowedHistogram*>>&
        instruments,
    std::string* out) {
  char buf[64];
  AppendHelpAndType(name, help, "summary", out);
  for (const auto& [encoded, histogram] : instruments) {
    const HistogramSnapshot full = histogram->Snapshot(0);
    static const struct {
      const char* q;
      double HistogramSnapshot::*field;
    } kQuantiles[] = {{"0.5", &HistogramSnapshot::p50},
                      {"0.99", &HistogramSnapshot::p99},
                      {"0.999", &HistogramSnapshot::p999}};
    for (const auto& q : kQuantiles) {
      out->append(name).append(MergeLabels(encoded, {{"quantile", q.q}}));
      out->push_back(' ');
      AppendValue(out, full.*(q.field));
      out->push_back('\n');
    }
    out->append(name).append("_sum").append(encoded).push_back(' ');
    AppendValue(out, full.sum);
    out->push_back('\n');
    out->append(name).append("_count").append(encoded).push_back(' ');
    std::snprintf(buf, sizeof(buf), "%" PRIu64 "\n", full.count);
    out->append(buf);
  }
  // Sliding-window p99s as a sibling gauge family: real SLO signal
  // over recent traffic, not process lifetime.
  AppendHelpAndType(name + "_window", "", "gauge", out);
  static const struct {
    const char* label;
    uint64_t micros;
  } kWindows[] = {{"10s", WindowedHistogram::kWindowShortMicros},
                  {"1m", WindowedHistogram::kWindowLongMicros}};
  for (const auto& [encoded, histogram] : instruments) {
    for (const auto& w : kWindows) {
      const HistogramSnapshot snap = histogram->Snapshot(w.micros);
      static const struct {
        const char* q;
        double HistogramSnapshot::*field;
      } kQuantiles[] = {{"0.99", &HistogramSnapshot::p99},
                        {"0.999", &HistogramSnapshot::p999}};
      for (const auto& q : kQuantiles) {
        out->append(name).append("_window").append(MergeLabels(
            encoded, {{"window", w.label}, {"quantile", q.q}}));
        out->push_back(' ');
        AppendValue(out, snap.*(q.field));
        out->push_back('\n');
      }
    }
  }
}

}  // namespace shield
