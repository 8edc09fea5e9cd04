#include "benchutil/report.h"

#include <cstdio>
#include <cstdlib>

namespace shield {
namespace bench {

void PrintBenchHeader(const std::string& title,
                      const std::string& paper_note) {
  printf("\n=== %s ===\n", title.c_str());
  if (!paper_note.empty()) {
    printf("paper: %s\n", paper_note.c_str());
  }
  printf("%-40s %14s %12s %12s\n", "config", "ops/sec", "avg(us)",
         "p99(us)");
}

void PrintResult(const BenchResult& r) {
  printf("%-40s %14.0f %12.1f %12.1f\n", r.label.c_str(), r.ops_per_sec(),
         r.avg_micros(), r.p99_micros());
  fflush(stdout);
}

double PercentVs(const BenchResult& baseline, const BenchResult& x) {
  if (baseline.ops_per_sec() == 0) {
    return 0;
  }
  return (x.ops_per_sec() - baseline.ops_per_sec()) * 100.0 /
         baseline.ops_per_sec();
}

void PrintPercentVs(const BenchResult& baseline, const BenchResult& x) {
  printf("  -> %s vs %s: %+.1f%%\n", x.label.c_str(), baseline.label.c_str(),
         PercentVs(baseline, x));
}

uint64_t EnvInt(const char* name, uint64_t default_value) {
  const char* v = getenv(name);
  if (v == nullptr || *v == '\0') {
    return default_value;
  }
  return strtoull(v, nullptr, 10);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool WriteBenchJson(const std::string& path, const std::string& bench_name,
                    const std::vector<BenchResult>& results,
                    const Statistics* stats) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  fprintf(f, "{\n  \"bench\": \"%s\",\n  \"results\": [",
          JsonEscape(bench_name).c_str());
  for (size_t i = 0; i < results.size(); i++) {
    const BenchResult& r = results[i];
    fprintf(f,
            "%s\n    {\"label\": \"%s\", \"ops\": %llu, "
            "\"ops_per_sec\": %.1f, \"avg_micros\": %.2f, "
            "\"p50_micros\": %.2f, \"p99_micros\": %.2f}",
            i == 0 ? "" : ",", JsonEscape(r.label).c_str(),
            static_cast<unsigned long long>(r.ops), r.ops_per_sec(),
            r.avg_micros(), r.p50_micros(), r.p99_micros());
  }
  fprintf(f, "\n  ],\n  \"tickers\": {");
  if (stats != nullptr) {
    for (size_t i = 0; i < kNumTickers; i++) {
      const Tickers t = static_cast<Tickers>(i);
      fprintf(f, "%s\n    \"%s\": %llu", i == 0 ? "" : ",", TickerName(t),
              static_cast<unsigned long long>(stats->GetTickerCount(t)));
    }
    fprintf(f, "\n  ");
  }
  fprintf(f, "},\n  \"histograms\": {");
  if (stats != nullptr) {
    bool first = true;
    for (size_t i = 0; i < kNumHistograms; i++) {
      const Histograms h = static_cast<Histograms>(i);
      const HistogramSnapshot hist = stats->GetHistogram(h);
      if (hist.count == 0) {
        continue;  // empty timers add noise, not information
      }
      fprintf(f,
              "%s\n    \"%s\": {\"count\": %llu, \"avg\": %.2f, "
              "\"p50\": %.2f, \"p99\": %.2f, \"max\": %llu}",
              first ? "" : ",", HistogramName(h),
              static_cast<unsigned long long>(hist.count),
              hist.sum / static_cast<double>(hist.count), hist.p50, hist.p99,
              static_cast<unsigned long long>(hist.max));
      first = false;
    }
    if (!first) {
      fprintf(f, "\n  ");
    }
  }
  fprintf(f, "}\n}\n");
  const bool ok = fflush(f) == 0 && ferror(f) == 0;
  fclose(f);
  return ok;
}

}  // namespace bench
}  // namespace shield
