// Encrypted monolith scenario: compares the paper's two designs on one
// server, then audits what is actually on disk.
//
//  1. EncFS (Section 4): one instance key, transparent Env-level
//     encryption.
//  2. SHIELD (Section 5): per-file DEKs + rotation, showing the DEK-ID
//     of every file before and after a compaction — the rotation is
//     visible as every SST's DEK changing.
//
// Usage: encrypted_monolith [work_dir]

#include <cstdio>
#include <map>
#include <memory>

#include "crypto/secure_random.h"
#include "env/env.h"
#include "lsm/db.h"
#include "lsm/file_names.h"
#include "shield/file_crypto.h"

namespace {

using namespace shield;  // example code; keep the demo readable

// Scans the DB directory for a plaintext needle (the "attacker with
// filesystem access" of the threat model).
bool DirectoryLeaks(Env* env, const std::string& dir,
                    const std::string& needle) {
  std::vector<std::string> children;
  env->GetChildren(dir, &children);
  for (const auto& child : children) {
    std::string contents;
    if (ReadFileToString(env, dir + "/" + child, &contents).ok() &&
        contents.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

void FillDemoData(DB* db, int n) {
  for (int i = 0; i < n; i++) {
    db->Put(WriteOptions(), "patient:" + std::to_string(i),
            "SSN-SECRET-" + std::to_string(1000000 + i));
  }
  db->Flush();
}

std::map<std::string, std::string> ListDekIds(Env* env,
                                              const std::string& dir) {
  std::map<std::string, std::string> ids;
  std::vector<std::string> children;
  env->GetChildren(dir, &children);
  for (const auto& child : children) {
    ShieldFileHeader header;
    if (ReadShieldFileHeader(env, dir + "/" + child, &header).ok()) {
      ids[child] = header.dek_id.ToHex().substr(0, 12);
    }
  }
  return ids;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string root = argc > 1 ? argv[1] : "/tmp/shield_monolith_demo";
  Env* env = Env::Default();
  env->CreateDirIfMissing(root);

  // ---- Design 1: instance-level EncFS -------------------------------
  {
    const std::string dir = root + "/encfs_db";
    Options options;
    options.encryption.mode = EncryptionMode::kEncFS;
    options.encryption.instance_key = crypto::SecureRandomString(16);
    DestroyDB(options, dir);

    DB* raw_db = nullptr;
    Status s = DB::Open(options, dir, &raw_db);
    if (!s.ok()) {
      fprintf(stderr, "encfs open failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::unique_ptr<DB> db(raw_db);
    FillDemoData(db.get(), 500);

    printf("[EncFS]  plaintext visible to filesystem attacker: %s\n",
           DirectoryLeaks(env, dir, "SSN-SECRET-") ? "YES (bug!)" : "no");
    printf("[EncFS]  trade-off: ONE key protects every file — a single "
           "DEK compromise exposes the whole store.\n\n");
  }

  // ---- Design 2: SHIELD ----------------------------------------------
  {
    const std::string dir = root + "/shield_db";
    Options options;
    options.write_buffer_size = 64 * 1024;  // small, to create many SSTs
    options.encryption.mode = EncryptionMode::kShield;
    // The KDS and DEK-cache counts printed below read these tickers.
    options.statistics = CreateDBStatistics();
    DestroyDB(options, dir);

    DB* raw_db = nullptr;
    Status s = DB::Open(options, dir, &raw_db);
    if (!s.ok()) {
      fprintf(stderr, "shield open failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::unique_ptr<DB> db(raw_db);
    FillDemoData(db.get(), 3000);

    printf("[SHIELD] plaintext visible to filesystem attacker: %s\n",
           DirectoryLeaks(env, dir, "SSN-SECRET-") ? "YES (bug!)" : "no");

    printf("[SHIELD] per-file DEK-IDs before compaction:\n");
    auto before = ListDekIds(env, dir);
    for (const auto& [file, id] : before) {
      printf("    %-20s dek=%s...\n", file.c_str(), id.c_str());
    }

    // DEK rotation: compaction rewrites data under fresh DEKs and the
    // old keys are destroyed with their files.
    db->CompactRange(nullptr, nullptr);
    db->WaitForIdle();

    printf("[SHIELD] per-file DEK-IDs after compaction (all rotated):\n");
    auto after = ListDekIds(env, dir);
    for (const auto& [file, id] : after) {
      printf("    %-20s dek=%s...\n", file.c_str(), id.c_str());
    }

    // Verify reads still work after rotation.
    std::string value;
    s = db->Get(ReadOptions(), "patient:42", &value);
    printf("[SHIELD] read after rotation: %s\n",
           s.ok() ? value.c_str() : s.ToString().c_str());

    std::string kds_requests, cache_hits;
    db->GetProperty("shield.kds-requests", &kds_requests);
    db->GetProperty("shield.dek-cache-hits", &cache_hits);
    printf("[SHIELD] KDS round-trips: %s, in-memory/cache DEK hits: %s\n",
           kds_requests.c_str(), cache_hits.c_str());
  }

  printf("\nencrypted_monolith OK\n");
  return 0;
}
