// sim_runner — deterministic whole-cluster simulation CLI.
//
// Runs one simulated SHIELD deployment (writer + read-only replicas +
// offloaded compaction worker on shared storage) on a virtual clock,
// injecting seeded faults and checking every epoch against the
// linearizability oracle. Same seed + flags → bit-for-bit identical
// journal, so a failing run reproduces exactly from the seed it
// prints.
//
//   sim_runner --seed=42 --duration=600 --faults=mixed
//   sim_runner --seed=42 --json              # machine-readable report
//   sim_runner --seed=42 --print-journal     # dump the event journal
//
// Exit code 0 on success, 1 on an oracle/driver failure (the seed is
// printed on stderr as "FAILED seed=<seed>"), 2 on usage errors.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "env/env.h"
#include "sim/sim_harness.h"
#include "util/event_logger.h"
#include "util/logger.h"

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: sim_runner [options]\n"
      "  --seed=N           PRNG seed for the whole run (default 1)\n"
      "  --duration=SECS    simulated (virtual) seconds to cover (default 60)\n"
      "  --faults=PROFILE   none | storage | network | mixed | rotation |\n"
      "                     write | health (default mixed; \"write\" runs\n"
      "                     the padded-WAL crash campaign). A comma\n"
      "                     list of health fault classes — e.g.\n"
      "                     --faults=kds,partition — runs the health\n"
      "                     campaign over exactly those classes.\n"
      "  --replicas=N       read-only replicas (default 2)\n"
      "  --ops=N            writer ops per epoch (default 120)\n"
      "  --json             print the report as one JSON object\n"
      "  --print-journal    dump the deterministic event journal to stdout\n"
      "  --journal=PATH     write the deterministic journal to this file\n"
      "  --trace-dir=DIR    export per-node SHTRACE1 trace files here\n"
      "                     (enables the observability plane; stitch with\n"
      "                     trace_replay --stitch DIR/*.trace)\n"
      "  --metrics-dir=DIR  export one Prometheus text file per DB node\n"
      "                     (<node>.prom; enables the observability plane)\n"
      "  --log=PATH         also write engine + sim events to this file\n");
}

bool ParseUint(const char* s, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  shield::sim::SimConfig config;
  bool json = false;
  bool print_journal = false;
  std::string log_path;
  std::string journal_path;
  std::string trace_dir;
  std::string metrics_dir;

  for (int i = 1; i < argc; i++) {
    const char* arg = argv[i];
    uint64_t n = 0;
    if (std::strncmp(arg, "--seed=", 7) == 0 && ParseUint(arg + 7, &n)) {
      config.seed = n;
    } else if (std::strncmp(arg, "--duration=", 11) == 0 &&
               ParseUint(arg + 11, &n)) {
      config.duration_sec = n;
    } else if (std::strncmp(arg, "--faults=", 9) == 0) {
      const std::string spec = arg + 9;
      if (!shield::sim::ParseFaultProfile(spec, &config.profile)) {
        // Not a profile name: accept a comma list of health fault
        // classes ("kds,partition") as shorthand for the health
        // campaign restricted to those classes. Validated by the
        // harness at startup.
        if (spec.find_first_not_of(
                "abcdefghijklmnopqrstuvwxyz,") != std::string::npos) {
          std::fprintf(stderr, "unknown fault profile: %s\n", arg + 9);
          Usage();
          return 2;
        }
        config.profile = shield::sim::FaultProfile::kHealth;
        config.health_fault_classes = spec;
      }
    } else if (std::strncmp(arg, "--replicas=", 11) == 0 &&
               ParseUint(arg + 11, &n)) {
      config.num_replicas = static_cast<int>(n);
    } else if (std::strncmp(arg, "--ops=", 6) == 0 && ParseUint(arg + 6, &n)) {
      config.ops_per_epoch = static_cast<int>(n);
    } else if (std::strcmp(arg, "--json") == 0) {
      json = true;
    } else if (std::strcmp(arg, "--print-journal") == 0) {
      print_journal = true;
    } else if (std::strncmp(arg, "--journal=", 10) == 0) {
      journal_path = arg + 10;
    } else if (std::strncmp(arg, "--trace-dir=", 12) == 0) {
      trace_dir = arg + 12;
      config.observability = true;
    } else if (std::strncmp(arg, "--metrics-dir=", 14) == 0) {
      metrics_dir = arg + 14;
      config.observability = true;
    } else if (std::strncmp(arg, "--log=", 6) == 0) {
      log_path = arg + 6;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg);
      Usage();
      return 2;
    }
  }

  if (!log_path.empty()) {
    shield::Status s = shield::NewFileLogger(
        shield::Env::Default(), log_path, 0, 0,
        shield::InfoLogLevel::kInfo, &config.info_log);
    if (!s.ok()) {
      std::fprintf(stderr, "cannot open --log file %s: %s\n",
                   log_path.c_str(), s.ToString().c_str());
      return 2;
    }
  }

  const shield::sim::SimReport report = shield::sim::RunSimulation(config);

  shield::Env* fs = shield::Env::Default();
  if (!journal_path.empty()) {
    shield::Status s = shield::WriteStringToFile(fs, report.journal,
                                                 journal_path, /*sync=*/false);
    if (!s.ok()) {
      std::fprintf(stderr, "cannot write --journal file %s: %s\n",
                   journal_path.c_str(), s.ToString().c_str());
      return 2;
    }
  }
  if (!trace_dir.empty()) {
    fs->CreateDirIfMissing(trace_dir);
    for (const auto& [name, bytes] : report.trace_files) {
      shield::Status s = shield::WriteStringToFile(
          fs, bytes, trace_dir + "/" + name, /*sync=*/false);
      if (!s.ok()) {
        std::fprintf(stderr, "cannot export trace %s: %s\n", name.c_str(),
                     s.ToString().c_str());
        return 2;
      }
    }
  }
  if (!metrics_dir.empty()) {
    fs->CreateDirIfMissing(metrics_dir);
    for (const auto& [node, text] : report.node_metrics) {
      shield::Status s = shield::WriteStringToFile(
          fs, text, metrics_dir + "/" + node + ".prom", /*sync=*/false);
      if (!s.ok()) {
        std::fprintf(stderr, "cannot export metrics for %s: %s\n",
                     node.c_str(), s.ToString().c_str());
        return 2;
      }
    }
  }

  if (print_journal) {
    std::fwrite(report.journal.data(), 1, report.journal.size(), stdout);
  }
  if (json) {
    shield::JsonWriter w;
    w.Add("ok", report.ok)
        .Add("seed", report.seed)
        .Add("profile", shield::sim::FaultProfileName(config.profile))
        .Add("epochs", report.epochs_run)
        .Add("ops", report.ops_acknowledged)
        .Add("oracle_checks", report.oracle_checks)
        .Add("crashes", report.crashes)
        .Add("faults_injected", report.faults_injected)
        .Add("virtual_micros", report.virtual_micros)
        .Add("wall_micros", report.wall_micros)
        .Add("model_hash", report.model_hash)
        .Add("journal_bytes", static_cast<uint64_t>(report.journal.size()));
    if (!report.ok) {
      w.Add("failure", report.failure);
    }
    std::string line = w.Finish();
    std::fprintf(print_journal ? stderr : stdout, "%s\n", line.c_str());
  } else {
    // With --print-journal, stdout is reserved for the byte-exact
    // journal (runs are compared with cmp); the summary, which
    // contains wall-clock times, moves to stderr.
    std::fprintf(
        print_journal ? stderr : stdout,
        "sim: seed=%" PRIu64 " profile=%s epochs=%" PRIu64 " ops=%" PRIu64
        " checks=%" PRIu64 " crashes=%" PRIu64 " faults=%" PRIu64
        " virtual=%.1fs wall=%.2fs (x%.0f)\n",
        report.seed, shield::sim::FaultProfileName(config.profile),
        report.epochs_run, report.ops_acknowledged, report.oracle_checks,
        report.crashes, report.faults_injected,
        report.virtual_micros / 1e6, report.wall_micros / 1e6,
        report.wall_micros > 0
            ? static_cast<double>(report.virtual_micros) / report.wall_micros
            : 0.0);
  }

  if (!report.ok) {
    std::fprintf(stderr, "FAILED seed=%" PRIu64 " : %s\n", report.seed,
                 report.failure.c_str());
    std::fprintf(stderr,
                 "reproduce with: sim_runner --seed=%" PRIu64
                 " --duration=%" PRIu64 " --faults=%s --replicas=%d --ops=%d\n",
                 report.seed, config.duration_sec,
                 shield::sim::FaultProfileName(config.profile),
                 config.num_replicas, config.ops_per_epoch);
    return 1;
  }
  return 0;
}
