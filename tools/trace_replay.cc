// trace_replay: analyzer + replayer for SHIELD binary trace files
// (see util/trace.h for the format and DESIGN.md "Observability").
//
//   trace_replay TRACE                   per-span-type latency breakdown
//   trace_replay --json TRACE            same, as one JSON object
//   trace_replay --replay --dir D TRACE  re-issue recorded io.read ops
//                                        against the files in D
//
// Exit codes: 0 clean; 1 usage or open failure; 2 the trace ends in
// damage (torn tail, CRC mismatch) — suppressed by --allow-truncated,
// which still replays/analyzes the valid prefix.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "env/env.h"
#include "env/readahead_file.h"
#include "util/clock.h"
#include "util/event_logger.h"
#include "util/histogram.h"
#include "util/trace.h"

namespace shield {
namespace {

struct TypeStats {
  uint64_t count = 0;
  uint64_t errors = 0;
  uint64_t bytes = 0;
  Histogram latency;
};

struct Options {
  std::string trace_path;
  std::vector<std::string> stitch_paths;
  std::string dir;
  size_t readahead_bytes = 0;
  bool replay = false;
  bool stitch = false;
  bool json = false;
  bool allow_truncated = false;
};

void Usage() {
  fprintf(stderr,
          "usage: trace_replay [options] <trace-file>\n"
          "       trace_replay --stitch [--json] <trace-file>...\n"
          "  --replay            re-issue recorded io.read operations\n"
          "  --dir DIR           directory holding the traced files "
          "(with --replay)\n"
          "  --readahead BYTES   wrap replayed files in a prefetch buffer\n"
          "  --stitch            merge per-node trace files (SHTRACE1 v2)\n"
          "                      into one causal tree: span ids are\n"
          "                      process-global, so a parent id recorded on\n"
          "                      another node resolves across files.\n"
          "                      Reports cross-node links with per-hop\n"
          "                      latency attribution.\n"
          "  --json              print the summary as one JSON object\n"
          "  --allow-truncated   exit 0 even if the trace ends in damage\n");
}

bool ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg == "--replay") {
      opts->replay = true;
    } else if (arg == "--stitch") {
      opts->stitch = true;
    } else if (arg == "--json") {
      opts->json = true;
    } else if (arg == "--allow-truncated") {
      opts->allow_truncated = true;
    } else if (arg == "--dir" && i + 1 < argc) {
      opts->dir = argv[++i];
    } else if (arg == "--readahead" && i + 1 < argc) {
      opts->readahead_bytes =
          static_cast<size_t>(strtoull(argv[++i], nullptr, 10));
    } else if (!arg.empty() && arg[0] == '-') {
      fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    } else if (opts->trace_path.empty()) {
      opts->trace_path = arg;
      opts->stitch_paths.push_back(arg);
    } else {
      opts->stitch_paths.push_back(arg);
    }
  }
  if (opts->trace_path.empty()) {
    return false;
  }
  if (!opts->stitch && opts->stitch_paths.size() > 1) {
    fprintf(stderr, "multiple trace files require --stitch\n");
    return false;
  }
  if (opts->replay && opts->stitch) {
    fprintf(stderr, "--replay and --stitch are mutually exclusive\n");
    return false;
  }
  if (opts->replay && opts->dir.empty()) {
    fprintf(stderr, "--replay requires --dir\n");
    return false;
  }
  return true;
}

bool IsIoType(SpanType t) {
  return t == SpanType::kIoRead || t == SpanType::kIoWrite ||
         t == SpanType::kIoSync;
}

// One traced file being replayed: the open handle plus its optional
// prefetch window.
struct ReplayFile {
  std::unique_ptr<RandomAccessFile> file;
  std::unique_ptr<FilePrefetchBuffer> prefetch;
};

struct ReplayStats {
  uint64_t reads = 0;
  uint64_t bytes = 0;
  uint64_t failed = 0;
  uint64_t skipped = 0;  // unknown file or zero-length record
  Histogram latency;
};

void ReplayRead(const SpanRecord& rec, Env* env, const Options& opts,
                std::map<std::string, ReplayFile>* files,
                std::string* scratch, ReplayStats* stats) {
  if (rec.label.empty() || rec.b == 0) {
    stats->skipped++;
    return;
  }
  auto it = files->find(rec.label);
  if (it == files->end()) {
    ReplayFile rf;
    const std::string path = opts.dir + "/" + rec.label;
    if (!env->NewRandomAccessFile(path, &rf.file).ok()) {
      // The file may have been compacted away since the trace was
      // recorded; count it once and skip its reads.
      it = files->emplace(rec.label, ReplayFile()).first;
    } else {
      if (opts.readahead_bytes > 0) {
        rf.prefetch = std::make_unique<FilePrefetchBuffer>(
            rf.file.get(), opts.readahead_bytes, opts.readahead_bytes,
            /*stats=*/nullptr);
      }
      it = files->emplace(rec.label, std::move(rf)).first;
    }
  }
  ReplayFile& rf = it->second;
  if (rf.file == nullptr) {
    stats->skipped++;
    return;
  }
  if (scratch->size() < rec.b) {
    scratch->resize(rec.b);
  }
  Slice result;
  const uint64_t t0 = NowMicros();
  const Status s = rf.prefetch != nullptr
                       ? rf.prefetch->ReadWithReadahead(
                             rec.a, rec.b, /*stored=*/false, &result,
                             scratch->data())
                       : rf.file->Read(rec.a, rec.b, &result,
                                       scratch->data());
  stats->latency.Add(NowMicros() - t0);
  stats->reads++;
  if (s.ok()) {
    stats->bytes += result.size();
  } else {
    stats->failed++;
  }
}

void PrintText(const std::map<SpanType, TypeStats>& by_type,
               const TraceReader& reader, const Options& opts,
               const ReplayStats* replay) {
  printf("trace: %s\n", opts.trace_path.c_str());
  printf("records: %" PRIu64 "%s\n", reader.records_read(),
         reader.truncated() ? " (truncated tail)" : "");
  printf("%-22s %10s %8s %10s %10s %10s %10s\n", "span", "count", "errors",
         "p50_us", "p99_us", "p999_us", "max_us");
  for (const auto& [type, ts] : by_type) {
    printf("%-22s %10" PRIu64 " %8" PRIu64 " %10.0f %10.0f %10.0f %10" PRIu64
           "\n",
           SpanTypeName(type), ts.count, ts.errors, ts.latency.Percentile(50),
           ts.latency.Percentile(99), ts.latency.Percentile(99.9),
           ts.latency.Max());
  }
  if (replay != nullptr) {
    printf("\nreplay: %" PRIu64 " reads, %" PRIu64 " bytes, %" PRIu64
           " failed, %" PRIu64 " skipped\n",
           replay->reads, replay->bytes, replay->failed, replay->skipped);
    printf("replay latency: p50 %.0fus p99 %.0fus p999 %.0fus\n",
           replay->latency.Percentile(50), replay->latency.Percentile(99),
           replay->latency.Percentile(99.9));
  }
}

void PrintJson(const std::map<SpanType, TypeStats>& by_type,
               const TraceReader& reader, const Options& opts,
               const ReplayStats* replay) {
  // Nested objects assembled from flat JsonWriter fragments: the
  // writer emits one flat object, so inner objects are rendered first
  // and spliced in as pre-serialized values.
  std::string out = "{";
  JsonWriter::AppendEscaped(&out, "trace");
  out += ":";
  JsonWriter::AppendEscaped(&out, opts.trace_path);
  char buf[128];
  snprintf(buf, sizeof(buf),
           ",\"records\":%" PRIu64 ",\"truncated\":%s,\"spans\":{",
           reader.records_read(), reader.truncated() ? "true" : "false");
  out += buf;
  bool first = true;
  for (const auto& [type, ts] : by_type) {
    if (!first) {
      out += ",";
    }
    first = false;
    JsonWriter::AppendEscaped(&out, SpanTypeName(type));
    snprintf(buf, sizeof(buf),
             ":{\"count\":%" PRIu64 ",\"errors\":%" PRIu64
             ",\"bytes\":%" PRIu64
             ",\"p50_us\":%.1f,\"p99_us\":%.1f,\"p999_us\":%.1f}",
             ts.count, ts.errors, ts.bytes, ts.latency.Percentile(50),
             ts.latency.Percentile(99), ts.latency.Percentile(99.9));
    out += buf;
  }
  out += "}";
  if (replay != nullptr) {
    snprintf(buf, sizeof(buf),
             ",\"replay\":{\"reads\":%" PRIu64 ",\"bytes\":%" PRIu64
             ",\"failed\":%" PRIu64 ",\"skipped\":%" PRIu64
             ",\"p50_us\":%.1f,\"p99_us\":%.1f}",
             replay->reads, replay->bytes, replay->failed, replay->skipped,
             replay->latency.Percentile(50), replay->latency.Percentile(99));
    out += buf;
  }
  out += "}";
  printf("%s\n", out.c_str());
}

// --- --stitch: merge per-node traces into one causal tree -----------

/// One span loaded from one node's trace file.
struct StitchedSpan {
  SpanRecord rec;
  int node_index = 0;
};

/// Aggregated stats for one (parent node/type → child node/type) edge
/// where parent and child were recorded on different nodes.
struct CrossLink {
  uint64_t count = 0;
  Histogram hop_latency;     // parent_duration - child_duration
  Histogram child_latency;   // remote-side execution time
};

std::string NodeLabel(const std::string& header_node,
                      const std::string& path) {
  if (!header_node.empty()) {
    return header_node;
  }
  // v1 trace (no node in the header): fall back to the file name.
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

int RunStitch(const Options& opts) {
  Env* env = Env::Default();
  std::vector<std::string> nodes;
  std::vector<StitchedSpan> spans;
  std::map<uint64_t, size_t> by_id;  // span_id -> index into spans
  bool truncated = false;
  uint64_t duplicate_ids = 0;

  for (const auto& path : opts.stitch_paths) {
    std::unique_ptr<TraceReader> reader;
    Status s = TraceReader::Open(env, path, &reader);
    if (!s.ok()) {
      fprintf(stderr, "cannot open trace %s: %s\n", path.c_str(),
              s.ToString().c_str());
      return 1;
    }
    const std::string node = NodeLabel(reader->node(), path);
    int node_index = -1;
    for (size_t i = 0; i < nodes.size(); i++) {
      if (nodes[i] == node) {
        node_index = static_cast<int>(i);
        break;
      }
    }
    if (node_index < 0) {
      node_index = static_cast<int>(nodes.size());
      nodes.push_back(node);
    }
    SpanRecord rec;
    while (reader->Next(&rec)) {
      StitchedSpan ss;
      ss.rec = rec;
      ss.node_index = node_index;
      auto [it, inserted] = by_id.emplace(rec.span_id, spans.size());
      if (!inserted) {
        duplicate_ids++;  // two unrelated runs mixed in one stitch
        it->second = spans.size();
      }
      spans.push_back(std::move(ss));
    }
    if (reader->truncated()) {
      truncated = true;
      fprintf(stderr, "warning: %s ends in damage: %s\n", path.c_str(),
              reader->parse_status().ToString().c_str());
    }
  }

  // Classify every parent edge. A parent id that resolves to a span on
  // another node is a cross-node hop — the offload dispatch, a replica
  // fetch, catch-up reads. Hop latency is the dispatcher-side span
  // time not spent in the remote-side span (fabric + queueing).
  uint64_t roots = 0, intra_links = 0, cross_links = 0, orphans = 0;
  std::map<std::string, CrossLink> links;
  for (const auto& ss : spans) {
    if (ss.rec.parent_id == 0) {
      roots++;
      continue;
    }
    auto it = by_id.find(ss.rec.parent_id);
    if (it == by_id.end()) {
      orphans++;  // parent lost to a buffer drop or missing file
      continue;
    }
    const StitchedSpan& parent = spans[it->second];
    if (parent.node_index == ss.node_index) {
      intra_links++;
      continue;
    }
    cross_links++;
    const std::string key = std::string(SpanTypeName(parent.rec.type)) + "@" +
                            nodes[parent.node_index] + " -> " +
                            SpanTypeName(ss.rec.type) + "@" +
                            nodes[ss.node_index];
    CrossLink& link = links[key];
    link.count++;
    const uint64_t hop =
        parent.rec.duration_micros > ss.rec.duration_micros
            ? parent.rec.duration_micros - ss.rec.duration_micros
            : 0;
    link.hop_latency.Add(hop);
    link.child_latency.Add(ss.rec.duration_micros);
  }

  if (opts.json) {
    std::string out = "{";
    char buf[192];
    snprintf(buf, sizeof(buf),
             "\"files\":%zu,\"spans\":%zu,\"roots\":%" PRIu64
             ",\"intra_node_links\":%" PRIu64 ",\"cross_node_links\":%" PRIu64
             ",\"orphans\":%" PRIu64 ",\"duplicate_ids\":%" PRIu64
             ",\"truncated\":%s,\"nodes\":[",
             opts.stitch_paths.size(), spans.size(), roots, intra_links,
             cross_links, orphans, duplicate_ids,
             truncated ? "true" : "false");
    out += buf;
    for (size_t i = 0; i < nodes.size(); i++) {
      if (i > 0) {
        out += ",";
      }
      JsonWriter::AppendEscaped(&out, nodes[i]);
    }
    out += "],\"links\":{";
    bool first = true;
    for (const auto& [key, link] : links) {
      if (!first) {
        out += ",";
      }
      first = false;
      JsonWriter::AppendEscaped(&out, key);
      snprintf(buf, sizeof(buf),
               ":{\"count\":%" PRIu64
               ",\"hop_p50_us\":%.1f,\"hop_p99_us\":%.1f,\"hop_max_us\":%" PRIu64
               ",\"remote_p50_us\":%.1f,\"remote_p99_us\":%.1f}",
               link.count, link.hop_latency.Percentile(50),
               link.hop_latency.Percentile(99), link.hop_latency.Max(),
               link.child_latency.Percentile(50),
               link.child_latency.Percentile(99));
      out += buf;
    }
    out += "}}";
    printf("%s\n", out.c_str());
  } else {
    printf("stitch: %zu files, %zu spans, %zu nodes\n",
           opts.stitch_paths.size(), spans.size(), nodes.size());
    printf("roots %" PRIu64 ", intra-node links %" PRIu64
           ", cross-node links %" PRIu64 ", orphans %" PRIu64 "\n",
           roots, intra_links, cross_links, orphans);
    if (duplicate_ids > 0) {
      printf("warning: %" PRIu64
             " duplicate span ids (mixed traces from separate runs?)\n",
             duplicate_ids);
    }
    if (!links.empty()) {
      printf("%-52s %8s %10s %10s %10s\n", "cross-node link", "count",
             "hop_p50", "hop_p99", "remote_p50");
      for (const auto& [key, link] : links) {
        printf("%-52s %8" PRIu64 " %10.0f %10.0f %10.0f\n", key.c_str(),
               link.count, link.hop_latency.Percentile(50),
               link.hop_latency.Percentile(99),
               link.child_latency.Percentile(50));
      }
    }
  }
  return truncated && !opts.allow_truncated ? 2 : 0;
}

int Run(const Options& opts) {
  Env* env = Env::Default();
  std::unique_ptr<TraceReader> reader;
  Status s = TraceReader::Open(env, opts.trace_path, &reader);
  if (!s.ok()) {
    fprintf(stderr, "cannot open trace: %s\n", s.ToString().c_str());
    return 1;
  }

  std::map<SpanType, TypeStats> by_type;
  std::map<std::string, ReplayFile> files;
  ReplayStats replay_stats;
  std::string scratch;

  SpanRecord rec;
  while (reader->Next(&rec)) {
    if (rec.type >= SpanType::kMaxSpanType) {
      continue;  // newer producer; count nothing we cannot name
    }
    TypeStats& ts = by_type[rec.type];
    ts.count++;
    ts.latency.Add(rec.duration_micros);
    if (rec.flags & kSpanFlagError) {
      ts.errors++;
    }
    if (IsIoType(rec.type)) {
      ts.bytes += rec.b;
    }
    if (opts.replay && rec.type == SpanType::kIoRead) {
      ReplayRead(rec, env, opts, &files, &scratch, &replay_stats);
    }
  }

  const ReplayStats* replay = opts.replay ? &replay_stats : nullptr;
  if (opts.json) {
    PrintJson(by_type, *reader, opts, replay);
  } else {
    PrintText(by_type, *reader, opts, replay);
  }

  if (reader->truncated() && !opts.allow_truncated) {
    fprintf(stderr, "trace ends in damage: %s\n",
            reader->parse_status().ToString().c_str());
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace shield

int main(int argc, char** argv) {
  shield::Options opts;
  if (!shield::ParseArgs(argc, argv, &opts)) {
    shield::Usage();
    return 1;
  }
  return opts.stitch ? shield::RunStitch(opts) : shield::Run(opts);
}
