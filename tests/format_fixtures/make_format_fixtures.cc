// Writes the golden on-disk fixtures that format_fixture_test reads:
//
//   make_format_fixtures <dir>
//
// SHIELD (per-file DEKs from fixture::FixtureKds, 64 B header):
//   shield_v1.sst, shield_v2.sst, shield_v2_padded.log
// EncFS (fixture::kEncFsInstanceKey, 4 KiB header):
//   encfs_v1.sst, encfs_v1.log, encfs_v2.sst, encfs_v2.log
// and their expected contents: expected_kv.txt (one "key<TAB>value"
// line per SST entry, in key order) and expected_records.txt (one WAL
// record per line).
//
// v1 files carry CTR ciphertext only; v2 files also carry per-block and
// per-record HMAC tags. Every file's nonce is random, so each run
// writes different bytes. The committed fixtures are the output of one
// run by an older build; regenerating them with the build whose
// readers they check would prove nothing.

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "encfs/encrypted_env.h"
#include "fixture_spec.h"
#include "lsm/comparator.h"
#include "lsm/format.h"
#include "lsm/log_writer.h"
#include "lsm/options.h"
#include "lsm/sst_builder.h"
#include "shield/dek_manager.h"
#include "shield/file_crypto.h"

namespace shield {
namespace {

std::vector<std::pair<std::string, std::string>> KeyValues() {
  std::vector<std::pair<std::string, std::string>> kvs;
  for (int i = 0; i < 300; i++) {
    char key[16];
    snprintf(key, sizeof(key), "key%05d", i * 3);
    kvs.emplace_back(key, "value-" + std::to_string(i) + "-" +
                              std::string((i * 7) % 50, 'a' + i % 26));
  }
  return kvs;
}

std::vector<std::string> Records() {
  std::vector<std::string> records;
  for (int i = 0; i < 150; i++) {
    char prefix[32];
    snprintf(prefix, sizeof(prefix), "record-%04d:", i);
    records.push_back(prefix + std::string((i * 37) % 700, 'a' + i % 26));
  }
  return records;
}

Status WriteSst(std::unique_ptr<WritableFile> file) {
  Options options;
  options.block_size = fixture::kBlockSize;
  const InternalKeyComparator icmp(BytewiseComparator());
  TableBuilder builder(options, &icmp, file.get());
  SequenceNumber seq = 1;
  for (const auto& [key, value] : KeyValues()) {
    builder.Add(InternalKey(key, seq++, kTypeValue).Encode(), value);
  }
  Status s = builder.Finish();
  Status c = file->Close();
  return s.ok() ? c : s;
}

Status WriteLog(std::unique_ptr<WritableFile> file,
                const std::vector<uint32_t>& padding_buckets) {
  Status s;
  {
    log::Writer writer(file.get(), 0, padding_buckets, nullptr);
    for (const std::string& record : Records()) {
      s = writer.AddRecord(record);
      if (!s.ok()) {
        break;
      }
    }
  }
  Status c = file->Close();
  return s.ok() ? c : s;
}

Status WriteShield(Env* env, const std::string& dir) {
  fixture::FixtureKds kds;
  DekManager dek_manager(&kds, "fixture-server", nullptr);
  EncryptionOptions opts;
  opts.mode = EncryptionMode::kShield;
  std::unique_ptr<WritableFile> file;

  opts.authenticate_blocks = false;
  Status s = NewShieldFileFactory(env, &dek_manager, opts, nullptr)
                 ->NewWritableFile(dir + "/shield_v1.sst", FileKind::kSst,
                                   &file);
  if (s.ok()) {
    s = WriteSst(std::move(file));
  }
  opts.authenticate_blocks = true;
  auto factory = NewShieldFileFactory(env, &dek_manager, opts, nullptr);
  if (s.ok()) {
    s = factory->NewWritableFile(dir + "/shield_v2.sst", FileKind::kSst,
                                 &file);
  }
  if (s.ok()) {
    s = WriteSst(std::move(file));
  }
  if (s.ok()) {
    s = factory->NewWritableFile(dir + "/shield_v2_padded.log",
                                 FileKind::kWal, &file);
  }
  if (s.ok()) {
    s = WriteLog(std::move(file), fixture::kPaddingBuckets);
  }
  return s;
}

Status WriteEncFs(Env* env, const std::string& dir, bool authenticated) {
  std::unique_ptr<Env> encfs;
  Status s = NewEncryptedEnv(env, crypto::CipherKind::kAes128Ctr,
                             fixture::kEncFsInstanceKey, &encfs,
                             /*wal_buffer_size=*/512, authenticated);
  const std::string base = dir + (authenticated ? "/encfs_v2" : "/encfs_v1");
  std::unique_ptr<WritableFile> file;
  if (s.ok()) {
    s = encfs->NewWritableFile(base + ".sst", &file);
  }
  if (s.ok()) {
    s = WriteSst(std::move(file));
  }
  if (s.ok()) {
    s = encfs->NewWritableFile(base + ".log", &file);
  }
  if (s.ok()) {
    s = WriteLog(std::move(file), {});
  }
  return s;
}

bool WriteExpected(const std::string& dir) {
  std::ofstream kv(dir + "/expected_kv.txt");
  for (const auto& [key, value] : KeyValues()) {
    kv << key << '\t' << value << '\n';
  }
  std::ofstream records(dir + "/expected_records.txt");
  for (const std::string& record : Records()) {
    records << record << '\n';
  }
  return kv.good() && records.good();
}

}  // namespace
}  // namespace shield

int main(int argc, char** argv) {
  if (argc != 2) {
    fprintf(stderr, "usage: %s <dir>\n", argv[0]);
    return 2;
  }
  const std::string dir = argv[1];
  shield::Env* env = shield::Env::Default();
  shield::Status s = env->CreateDirIfMissing(dir);
  if (s.ok()) {
    s = shield::WriteShield(env, dir);
  }
  if (s.ok()) {
    s = shield::WriteEncFs(env, dir, /*authenticated=*/false);
  }
  if (s.ok()) {
    s = shield::WriteEncFs(env, dir, /*authenticated=*/true);
  }
  if (!s.ok() || !shield::WriteExpected(dir)) {
    fprintf(stderr, "make_format_fixtures: %s\n", s.ToString().c_str());
    return 1;
  }
  printf("fixtures written to %s\n", dir.c_str());
  return 0;
}
