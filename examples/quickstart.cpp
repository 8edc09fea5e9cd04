// Quickstart: open a SHIELD-encrypted LSM-KVS, write, read, scan.
//
// Usage: quickstart [db_path]
//
// Every persistent file (WAL, SST, Manifest) is encrypted with its own
// DEK; a monolithic deployment needs zero extra infrastructure (an
// in-process KDS is created automatically).

#include <cstdio>
#include <memory>

#include "lsm/db.h"

using shield::DB;
using shield::Iterator;
using shield::Options;
using shield::ReadOptions;
using shield::Status;
using shield::WriteBatch;
using shield::WriteOptions;

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/shield_quickstart_db";

  Options options;
  options.create_if_missing = true;
  // Turn on SHIELD: per-file DEKs, rotation via compaction, buffered
  // WAL encryption. Everything else is default.
  options.encryption.mode = shield::EncryptionMode::kShield;
  // Counters such as "shield.kds-requests" read these tickers.
  options.statistics = shield::CreateDBStatistics();

  shield::DestroyDB(options, path);  // fresh start for the demo

  DB* raw_db = nullptr;
  Status s = DB::Open(options, path, &raw_db);
  if (!s.ok()) {
    fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::unique_ptr<DB> db(raw_db);

  // Single writes.
  s = db->Put(WriteOptions(), "user:1001:name", "ada");
  if (!s.ok()) {
    fprintf(stderr, "put failed: %s\n", s.ToString().c_str());
    return 1;
  }
  db->Put(WriteOptions(), "user:1001:email", "ada@example.com");

  // Atomic multi-key updates.
  WriteBatch batch;
  batch.Put("user:1002:name", "grace");
  batch.Put("user:1002:email", "grace@example.com");
  batch.Delete("user:1001:email");
  db->Write(WriteOptions(), &batch);

  // Point reads.
  std::string value;
  s = db->Get(ReadOptions(), "user:1002:name", &value);
  printf("user:1002:name = %s\n", s.ok() ? value.c_str() : s.ToString().c_str());
  s = db->Get(ReadOptions(), "user:1001:email", &value);
  printf("user:1001:email -> %s (deleted in the batch)\n",
         s.IsNotFound() ? "NotFound" : "unexpected!");

  // Range scan.
  printf("\nall keys under user:1002:\n");
  std::unique_ptr<Iterator> iter(db->NewIterator(ReadOptions()));
  for (iter->Seek("user:1002:"); iter->Valid(); iter->Next()) {
    if (!iter->key().starts_with("user:1002:")) {
      break;
    }
    printf("  %s = %s\n", iter->key().ToString().c_str(),
           iter->value().ToString().c_str());
  }

  // Persist the memtable and show internal state.
  db->Flush();
  std::string stats;
  if (db->GetProperty("shield.stats", &stats)) {
    printf("\n%s", stats.c_str());
  }
  std::string kds_requests;
  db->GetProperty("shield.kds-requests", &kds_requests);
  printf("DEKs requested from the KDS so far: %s\n", kds_requests.c_str());

  printf("\nquickstart OK — encrypted database at %s\n", path.c_str());
  return 0;
}
