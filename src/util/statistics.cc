#include "util/statistics.h"

#include <cinttypes>
#include <cstdio>
#include <thread>

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
    "lsm.stall.micros",
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
  for (auto& h : histograms_) h.Clear();
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
    const Histogram& h = histograms_[i];
    if (h.Count() == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "%-30s count=%" PRIu64 " avg=%.1f p50=%.1f p99=%.1f max=%" PRIu64
                  "\n",
                  kHistogramNames[i], h.Count(), h.Average(),
                  h.Percentile(50.0), h.Percentile(99.0), h.Max());
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

}  // namespace

void Statistics::AttachRegistry(MetricsRegistry* registry,
                                const std::string& node) {
  if (registry == nullptr) {
    // Detach: publish the nulls first so no new reader can pick up a
    // registry-owned pointer, then wait for readers already inside an
    // adapter use to drain. Once this returns the registry (and every
    // instrument it owns) may be destroyed.
    for (auto& w : windowed_) {
      w.store(nullptr);
    }
    for (auto& c : ticker_counters_) {
      c.store(nullptr);
    }
    registry_.store(nullptr);
    while (adapter_inflight_.load() != 0) {
      std::this_thread::yield();
    }
    return;
  }
  // Attach: instruments before registry_, which gates SyncRegistry.
  for (size_t i = 0; i < kNumTickers; ++i) {
    ticker_counters_[i].store(
        registry->GetCounter(PrometheusMetricName(kTickerNames[i]), "",
                             TickerLabels(kTickerNames[i], node)),
        std::memory_order_release);
  }
  for (size_t i = 0; i < kNumHistograms; ++i) {
    windowed_[i].store(
        registry->GetHistogram(kLatencyFamily, kLatencyHelp,
                               HistogramLabels(kHistogramNames[i], node)),
        std::memory_order_release);
  }
  registry_.store(registry, std::memory_order_release);
}

void Statistics::SyncRegistry() const {
  adapter_inflight_.fetch_add(1);
  if (registry_.load() != nullptr) {
    for (size_t i = 0; i < kNumTickers; ++i) {
      Counter* c = ticker_counters_[i].load();
      if (c != nullptr) {
        c->Set(tickers_[i].load(std::memory_order_relaxed));
      }
    }
  }
  adapter_inflight_.fetch_sub(1);
}

std::string Statistics::ToPrometheusText() const {
  adapter_inflight_.fetch_add(1);
  MetricsRegistry* attached = registry_.load();
  if (attached != nullptr) {
    SyncRegistry();
    std::string out = attached->ToPrometheusText();
    adapter_inflight_.fetch_sub(1);
    return out;
  }
  adapter_inflight_.fetch_sub(1);

  // Standalone rendering: counters through an ephemeral registry (same
  // escaping/_total formatting), then the latency summary family from
  // the cumulative histograms directly (no windowed data exists
  // without an attached registry).
  MetricsRegistry reg;
  for (size_t i = 0; i < kNumTickers; ++i) {
    reg.GetCounter(PrometheusMetricName(kTickerNames[i]), "",
                   TickerLabels(kTickerNames[i], std::string()))
        ->Set(tickers_[i].load(std::memory_order_relaxed));
  }
  std::string out = reg.ToPrometheusText();

  char buf[256];
  out.append("# TYPE ").append(kLatencyFamily).append(" summary\n");
  for (size_t i = 0; i < kNumHistograms; ++i) {
    const Histogram& h = histograms_[i];
    const std::string op = OpOf(kHistogramNames[i]);
    static const struct {
      const char* label;
      double q;
    } kQuantiles[] = {{"0.5", 50.0}, {"0.99", 99.0}, {"0.999", 99.9}};
    for (const auto& q : kQuantiles) {
      std::snprintf(buf, sizeof(buf), "%s{op=\"%s\",quantile=\"%s\"} %.1f\n",
                    kLatencyFamily, op.c_str(), q.label,
                    h.Count() > 0 ? h.Percentile(q.q) : 0.0);
      out.append(buf);
    }
    std::snprintf(buf, sizeof(buf), "%s_sum{op=\"%s\"} %.0f\n", kLatencyFamily,
                  op.c_str(), h.Average() * static_cast<double>(h.Count()));
    out.append(buf);
    std::snprintf(buf, sizeof(buf), "%s_count{op=\"%s\"} %" PRIu64 "\n",
                  kLatencyFamily, op.c_str(), h.Count());
    out.append(buf);
  }
  return out;
}

std::shared_ptr<Statistics> CreateDBStatistics() {
  return std::make_shared<Statistics>();
}

}  // namespace shield
