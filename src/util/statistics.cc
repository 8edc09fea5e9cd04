#include "util/statistics.h"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <numeric>

namespace shield {

namespace {

// Indexed by Tickers value. Keep in sync with the enum; the static
// assert below catches drift.
const char* const kTickerNames[] = {
    "io.wal.read.bytes",
    "io.wal.write.bytes",
    "io.wal.read.ops",
    "io.wal.write.ops",
    "io.sst.read.bytes",
    "io.sst.write.bytes",
    "io.sst.read.ops",
    "io.sst.write.ops",
    "io.manifest.read.bytes",
    "io.manifest.write.bytes",
    "io.manifest.read.ops",
    "io.manifest.write.ops",
    "io.other.read.bytes",
    "io.other.write.bytes",
    "io.other.read.ops",
    "io.other.write.ops",
    "io.readahead.bytes",
    "io.readahead.hit",
    "io.readahead.miss",
    "lsm.flush.bytes.written",
    "lsm.compaction.bytes.read",
    "lsm.compaction.bytes.written",
    "lsm.block.cache.hit",
    "lsm.block.cache.miss",
    "lsm.block.cache.flush.inserts",
    "lsm.block.cache.dead.erases",
    "lsm.table.cache.hit",
    "lsm.table.cache.miss",
    "lsm.stall.micros",
    "lsm.offload.fallbacks",
    "lsm.recovery.salvaged.logs",
    "lsm.multiget.keys",
    "lsm.multiget.batches",
    "crypto.bytes.encrypted",
    "crypto.bytes.decrypted",
    "crypto.aes.bytes",
    "crypto.chacha20.bytes",
    "crypto.hmac.computed",
    "crypto.hmac.verified",
    "crypto.hmac.failures",
    "shield.dek.created",
    "shield.dek.destroyed",
    "shield.dek.cache.hit",
    "shield.dek.cache.miss",
    "shield.dek.cache.evictions",
    "shield.chunk.encrypt.shards",
    "shield.wal.buffer.drains",
    "kds.requests",
    "kds.retries",
    "kds.failures",
    "ds.network.bytes",
    "ds.network.requests",
    "ds.network.wait.micros",
    "shield.events.emitted",
    "io.trace.spans",
    "io.trace.bytes",
    "io.trace.dropped",
    "shield.rotation.passes",
    "shield.rotation.files",
    "shield.rotation.bytes",
    "shield.rotation.skipped.stale",
    "shield.dek.delete.deferred",
    "shield.backup.files",
    "shield.backup.bytes",
    "lsm.write.groups",
    "lsm.write.group_size",
    "shield.wal.padding.records",
    "shield.wal.padding.bytes",
    "lsm.ingest.files",
    "lsm.ingest.bytes",
    "shield.dump.files",
    "shield.dump.bytes",
    "shield.scrub.corruptions",
    "shield.scrub.repaired",
    "shield.scrub.quarantined",
};

static_assert(sizeof(kTickerNames) / sizeof(kTickerNames[0]) == kNumTickers,
              "ticker name table out of sync with Tickers enum");

const char* const kHistogramNames[] = {
    "db.get.micros",      "db.multiget.micros",    "db.write.micros",
    "db.seek.micros",     "db.flush.micros",       "db.compactrange.micros",
    "lsm.flush.micros",   "lsm.compaction.micros", "sst.read.micros",
    "kds.latency.micros",
};

static_assert(sizeof(kHistogramNames) / sizeof(kHistogramNames[0]) ==
                  kNumHistograms,
              "histogram name table out of sync with Histograms enum");

}  // namespace

const char* TickerName(Tickers ticker) {
  return kTickerNames[static_cast<size_t>(ticker)];
}

const char* HistogramName(Histograms histogram) {
  return kHistogramNames[static_cast<size_t>(histogram)];
}

void Statistics::Reset() {
  for (auto& t : tickers_) t.store(0, std::memory_order_relaxed);
  for (auto& h : timers_) h.Clear();
}

std::string Statistics::ToString() const {
  std::string out;
  char buf[256];
  for (size_t i = 0; i < kNumTickers; ++i) {
    std::snprintf(buf, sizeof(buf), "%-30s %" PRIu64 "\n", kTickerNames[i],
                  tickers_[i].load(std::memory_order_relaxed));
    out.append(buf);
  }
  for (size_t i = 0; i < kNumHistograms; ++i) {
    const HistogramSnapshot h = timers_[i].Snapshot(0);
    if (h.count == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "%-30s count=%" PRIu64 " avg=%.1f p50=%.1f p99=%.1f max=%" PRIu64
                  "\n",
                  kHistogramNames[i], h.count,
                  h.sum / static_cast<double>(h.count), h.p50, h.p99, h.max);
    out.append(buf);
  }
  return out;
}

namespace {

/// "io.sst.read.bytes" -> "shield_io_sst_read_bytes".
std::string PrometheusMetricName(const char* dotted) {
  std::string out = "shield_";
  for (const char* p = dotted; *p != '\0'; ++p) {
    out.push_back(*p == '.' ? '_' : *p);
  }
  return out;
}

/// First dotted component ("io.sst.read.bytes" -> "io").
std::string SubsystemOf(const char* dotted) {
  std::string out;
  for (const char* p = dotted; *p != '\0' && *p != '.'; ++p) {
    out.push_back(*p);
  }
  return out;
}

/// "db.get.micros" -> "db.get" (the op label of the latency family).
std::string OpOf(const char* dotted) {
  std::string out(dotted);
  const std::string suffix = ".micros";
  if (out.size() > suffix.size() &&
      out.compare(out.size() - suffix.size(), suffix.size(), suffix) == 0) {
    out.resize(out.size() - suffix.size());
  }
  return out;
}

constexpr char kLatencyFamily[] = "shield_op_latency_micros";
constexpr char kLatencyHelp[] = "Operation latency in microseconds";

MetricLabels TickerLabels(const char* dotted, const std::string& node) {
  MetricLabels labels;
  labels.Set("subsystem", SubsystemOf(dotted));
  if (!node.empty()) {
    labels.Set("node", node);
  }
  return labels;
}

MetricLabels HistogramLabels(const char* dotted, const std::string& node) {
  MetricLabels labels;
  labels.Set("op", OpOf(dotted));
  if (!node.empty()) {
    labels.Set("node", node);
  }
  return labels;
}

/// Ticker indexes in family-name order, the order a scrape lists them.
const std::array<size_t, kNumTickers>& TickersByFamilyName() {
  static const std::array<size_t, kNumTickers> order = [] {
    std::array<size_t, kNumTickers> o;
    std::iota(o.begin(), o.end(), size_t{0});
    std::sort(o.begin(), o.end(), [](size_t a, size_t b) {
      return PrometheusMetricName(kTickerNames[a]) <
             PrometheusMetricName(kTickerNames[b]);
    });
    return o;
  }();
  return order;
}

}  // namespace

std::string Statistics::ToPrometheusText(const std::string& node) const {
  std::string out;
  for (size_t i : TickersByFamilyName()) {
    AppendCounterFamily(PrometheusMetricName(kTickerNames[i]), "",
                        {{TickerLabels(kTickerNames[i], node).Encode(),
                          tickers_[i].load(std::memory_order_relaxed)}},
                        &out);
  }
  std::vector<std::pair<std::string, const WindowedHistogram*>> timers;
  for (size_t i = 0; i < kNumHistograms; ++i) {
    timers.emplace_back(HistogramLabels(kHistogramNames[i], node).Encode(),
                        &timers_[i]);
  }
  AppendSummaryFamily(kLatencyFamily, kLatencyHelp, timers, &out);
  return out;
}

std::shared_ptr<Statistics> CreateDBStatistics() {
  return std::make_shared<Statistics>();
}

}  // namespace shield
