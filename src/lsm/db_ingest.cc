// Bulk data lifecycle: external-SST ingest and range dump/restore.
//
// IngestExternalFile installs an externally produced table as a
// level-0 file. Two source shapes are accepted:
//   - A SHIELD-encrypted SST (e.g. a DumpRange output) is adopted
//     byte-for-byte: its embedded DEK id is re-wrapped onto THIS
//     instance's identity (Kds::RewrapDek mints a fresh id over the
//     same key material, so ciphertext and block tags are unchanged),
//     the plaintext header copy is patched, and the key is registered
//     with the DekManager. Revoking the source's ids afterwards does
//     not affect the ingested file.
//   - A plaintext SST is re-built through the DB's own encryption
//     path, so under kShield it lands encrypted with a fresh DEK.
// Both paths fail closed: a malformed SHIELD header, an unresolvable
// DEK or a table that does not parse rejects the file before any DB
// state changes. Installation follows the flush protocol — the file
// number stays in pending_outputs_ until the version edit is applied,
// and the sequence horizon is bumped past the table's entries so they
// are visible to reads.
//
// DumpRange is the export side: the latest visible versions in
// [begin, end] are written as freshly built SSTs (cut at
// DumpOptions::max_file_bytes) plus a DUMP_MANIFEST that records an
// HMAC-SHA256 tag per file and is itself MAC'd: a dump is a signed
// bundle, like a backup (lsm/bundle.h). With a target_server_id every
// dump file's DEK is
// re-wrapped for the target identity, so DumpRange + RestoreDump
// migrates data between KDS identities without copying a DB
// directory — and without the source's keys surviving revocation.

#include <algorithm>
#include <memory>
#include <vector>

#include "lsm/bundle.h"
#include "lsm/compaction_job.h"
#include "lsm/db_impl.h"
#include "lsm/file_names.h"
#include "lsm/sst_reader.h"
#include "shield/file_crypto.h"

namespace shield {

Status DBImpl::PrepareEncryptedIngest(const std::string& file_path,
                                      std::string* contents,
                                      bool* rewrapped) {
  *rewrapped = false;
  if (options_.encryption.mode != EncryptionMode::kShield) {
    return Status::InvalidArgument(
        "SHIELD-encrypted ingest requires EncryptionMode::kShield",
        file_path);
  }
  Status s = ReadFileToString(raw_env_, file_path, contents);
  if (!s.ok()) {
    return s;
  }
  // Full header validation (nonce length, cipher id, reserved byte):
  // a magic-bearing file that fails here is corrupt, never adopted.
  ShieldFileHeader header;
  s = ParseShieldFileHeader(*contents, &header);
  if (!s.ok()) {
    return s;
  }
  // Always re-wrap — even a DEK already provisioned to us gets a fresh
  // id owned by this instance, so revoking the SOURCE's ids later
  // cannot orphan the ingested file.
  Dek adopted;
  s = dek_manager_->RewrapDek(header.dek_id, dek_manager_->server_id(),
                              &adopted);
  if (!s.ok()) {
    return s;
  }
  SetShieldFileDekId(adopted.id, contents);
  dek_manager_->AdoptDek(adopted);
  *rewrapped = true;
  return Status::OK();
}

Status DBImpl::RebuildPlaintextIngest(const std::string& file_path,
                                      const std::string& fname,
                                      uint64_t* file_size) {
  *file_size = 0;
  uint64_t src_size = 0;
  Status s = raw_env_->GetFileSize(file_path, &src_size);
  if (!s.ok()) {
    return s;
  }
  std::unique_ptr<RandomAccessFile> src;
  s = raw_env_->NewRandomAccessFile(file_path, &src);
  if (!s.ok()) {
    return s;
  }
  std::unique_ptr<Table> table;
  s = Table::Open(options_, &internal_comparator_, file_path, std::move(src),
                  src_size, /*tail_size=*/0, /*block_cache=*/{}, &table);
  if (!s.ok()) {
    return s;
  }
  ReadOptions read_options;
  read_options.fill_cache = false;
  std::unique_ptr<Iterator> iter(table->NewIterator(read_options));

  SstOutput out(options_, &internal_comparator_);
  s = out.Open(files_.get(), fname, /*number=*/0);
  for (iter->SeekToFirst(); s.ok() && iter->Valid(); iter->Next()) {
    if (iter->key().size() < 8) {
      s = Status::Corruption("ingest source key is not an internal key",
                             file_path);
      break;
    }
    s = out.Add(iter->key(), iter->value());
  }
  if (s.ok()) {
    s = iter->status();
  }
  if (s.ok() && out.num_entries() == 0) {
    s = Status::InvalidArgument("ingest source table is empty", file_path);
  }
  if (!s.ok()) {
    return s;
  }
  CompactionOutputMeta meta;
  s = out.Finish(&meta);
  if (s.ok()) {
    *file_size = meta.file_size;
  }
  return s;
}

Status DBImpl::InstallIngestedFile(uint64_t file_number, uint64_t file_size,
                                   IngestResult* result) {
  // Scan the installed image through the table cache: recovers the key
  // range and max sequence, and doubles as end-to-end verification —
  // every block's CRC (and authentication tag, under v2 headers) is
  // checked with the re-wrapped DEK before the file is published.
  ReadOptions read_options;
  read_options.fill_cache = false;
  InternalKey smallest, largest;
  SequenceNumber max_seq = 0;
  uint64_t entries = 0;
  // The file may come from elsewhere, so its tail size is not known
  // until the open reads its meta block handles.
  FileMetaData meta;
  meta.number = file_number;
  meta.file_size = file_size;
  {
    Table* table = nullptr;
    std::unique_ptr<Iterator> iter(
        table_cache_->NewIterator(read_options, meta, &table));
    iter->SeekToFirst();
    if (!iter->Valid()) {
      Status s = iter->status();
      return s.ok() ? Status::InvalidArgument("ingested table is empty") : s;
    }
    smallest.DecodeFrom(iter->key());
    std::string last_key;
    for (; iter->Valid(); iter->Next()) {
      const Slice key = iter->key();
      if (key.size() < 8) {
        return Status::Corruption(
            "ingested table key is not an internal key");
      }
      max_seq = std::max(max_seq, ExtractSequence(key));
      last_key.assign(key.data(), key.size());
      entries++;
    }
    Status s = iter->status();
    if (!s.ok()) {
      return s;
    }
    largest.DecodeFrom(last_key);
    meta.tail_size = table->tail_size();
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (!error_handler_.ok()) {
    return error_handler_.bg_error();
  }
  // Entries above the sequence horizon are invisible to reads; lift it
  // over the ingested table (dump outputs carry the source's snapshot
  // sequence, which may be far ahead of ours). Before LogAndApply: the
  // manifest edit is stamped with the current horizon, and a reopen
  // must not recover a horizon that hides the ingested entries. An
  // unused bump from a failed apply only leaves a gap in the sequence
  // space.
  if (versions_->LastSequence() < max_seq) {
    versions_->SetLastSequence(max_seq);
  }
  VersionEdit edit;
  edit.AddFile(0, file_number, file_size, smallest, largest, max_seq,
               meta.tail_size);
  Status s = versions_->LogAndApply(&edit, &mutex_);
  if (!s.ok()) {
    return s;
  }
  pending_outputs_.erase(file_number);
  if (result != nullptr) {
    result->entries = entries;
  }
  return Status::OK();
}

Status DBImpl::IngestExternalFile(const std::string& file_path,
                                  const IngestOptions& ingest_options,
                                  IngestResult* result) {
  if (read_only_) {
    return Status::NotSupported(
        "ingest requires the primary instance");
  }
  // Classify the source by its physical first bytes: SHIELD files are
  // adopted, everything else goes through the plaintext rebuild (and
  // fails there if it is not a parseable table).
  bool shield_source = false;
  {
    std::unique_ptr<RandomAccessFile> src;
    Status ps = raw_env_->NewRandomAccessFile(file_path, &src);
    if (!ps.ok()) {
      return ps;
    }
    char scratch[8];
    Slice prefix;
    ps = src->Read(0, sizeof(scratch), &prefix, scratch);
    if (!ps.ok()) {
      return ps;
    }
    shield_source = LooksLikeShieldFile(prefix);
  }

  uint64_t number = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!error_handler_.ok()) {
      return error_handler_.bg_error();
    }
    number = versions_->NewFileNumber();
    pending_outputs_.insert(number);
  }
  const std::string fname = TableFileName(dbname_, number);

  Status s;
  bool rewrapped = false;
  uint64_t file_size = 0;
  if (shield_source) {
    std::string contents;
    s = PrepareEncryptedIngest(file_path, &contents, &rewrapped);
    if (s.ok()) {
      file_size = contents.size() - kShieldHeaderSize;
      s = WriteStringToFile(raw_env_, contents, fname, /*sync=*/true);
    }
  } else {
    s = RebuildPlaintextIngest(file_path, fname, &file_size);
  }

  IngestResult local;
  if (s.ok()) {
    local.file_number = number;
    local.bytes = file_size;
    local.dek_rewrapped = rewrapped;
    s = InstallIngestedFile(number, file_size, &local);
  }

  if (s.ok()) {
    RecordTick(options_.statistics.get(), Tickers::kLsmIngestFiles, 1);
    RecordTick(options_.statistics.get(), Tickers::kLsmIngestBytes,
               file_size);
    if (ingest_options.move_file) {
      raw_env_->RemoveFile(file_path);  // best effort: the DB owns fname
    }
    if (result != nullptr) {
      *result = local;
    }
  } else {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_outputs_.erase(number);
    // Best effort: also releases any DEK bound to the partial file.
    files_->DeleteFile(fname);
  }

  if (event_logger_ != nullptr) {
    JsonWriter w = event_logger_->NewEvent("ingest_file");
    w.Add("path", file_path);
    w.Add("file_number", number);
    w.Add("entries", local.entries);
    w.Add("bytes", file_size);
    w.Add("dek_rewrapped", rewrapped);
    w.Add("ok", s.ok());
    if (!s.ok()) {
      w.Add("error", s.ToString());
    }
    event_logger_->Emit(&w);
  }
  return s;
}

Status DBImpl::DumpRange(const std::string& dump_dir, const Slice* begin,
                         const Slice* end, const DumpOptions& dump_options) {
  if (read_only_) {
    return Status::NotSupported("dumps are created from the primary instance");
  }
  if (!dump_options.target_server_id.empty() &&
      options_.encryption.mode != EncryptionMode::kShield) {
    return Status::InvalidArgument(
        "target_server_id requires SHIELD encryption");
  }
  if (options_.encryption.mode == EncryptionMode::kEncFS) {
    // EncFS output would be bound to this instance's directory key and
    // unreadable anywhere else; there is nothing portable to dump.
    return Status::NotSupported("DumpRange is not supported under EncFS");
  }

  Status s = raw_env_->CreateDirIfMissing(dump_dir);
  if (!s.ok()) {
    return s;
  }
  if (raw_env_->FileExists(BundleManifestPath(kDumpBundle, dump_dir))) {
    return Status::InvalidArgument("dump_dir already contains a dump",
                                   dump_dir);
  }

  // Pin one consistent cut: every dumped entry is the latest version
  // visible at this sequence, written back out at exactly that
  // sequence so restore preserves point-in-time semantics.
  const Snapshot* snapshot = GetSnapshot();
  const SequenceNumber dump_seq =
      static_cast<const SnapshotImpl*>(snapshot)->sequence();

  if (event_logger_ != nullptr) {
    JsonWriter w = event_logger_->NewEvent("dump_begin");
    w.Add("path", dump_dir);
    w.Add("sequence", dump_seq);
    w.Add("target",
          dump_options.target_server_id.empty()
              ? Slice("-")
              : Slice(dump_options.target_server_id));
    event_logger_->Emit(&w);
  }

  ReadOptions read_options;
  read_options.snapshot = snapshot;
  read_options.fill_cache = false;
  std::unique_ptr<Iterator> iter(NewIterator(read_options));

  const Comparator* user_cmp = internal_comparator_.user_comparator();
  std::vector<std::string> outputs;
  SstOutput out(options_, &internal_comparator_);
  CompactionOutputMeta meta;
  uint64_t total_entries = 0;

  if (begin != nullptr) {
    iter->Seek(*begin);
  } else {
    iter->SeekToFirst();
  }
  for (; s.ok() && iter->Valid(); iter->Next()) {
    const Slice user_key = iter->key();
    if (end != nullptr && user_cmp->Compare(user_key, *end) > 0) {
      break;
    }
    if (!out.is_open()) {
      const uint64_t number = outputs.size() + 1;
      outputs.push_back(TableFileName(dump_dir, number));
      s = out.Open(files_.get(), outputs.back(), number);
      if (!s.ok()) {
        break;
      }
    }
    InternalKey ikey(user_key, dump_seq, kTypeValue);
    s = out.Add(ikey.Encode(), iter->value());
    total_entries++;
    if (s.ok() && out.file_size() >= dump_options.max_file_bytes) {
      s = out.Finish(&meta);
    }
  }
  if (s.ok()) {
    s = iter->status();
  }
  if (s.ok() && out.is_open()) {
    s = out.Finish(&meta);
  }
  iter.reset();
  ReleaseSnapshot(snapshot);

  // Re-wrap each output's DEK for the target identity and record the
  // integrity entries over the final physical bytes.
  std::vector<BundleFileEntry> entries;
  uint64_t total_bytes = 0;
  for (const auto& path : outputs) {
    if (!s.ok()) {
      break;
    }
    std::string contents;
    s = ReadFileToString(raw_env_, path, &contents);
    if (!s.ok()) {
      break;
    }
    BundleFileEntry entry;
    entry.name = path.substr(path.rfind('/') + 1);
    s = SealBundleFile(dek_manager_.get(), dump_options.target_server_id,
                       dump_options.hmac_key, &contents, &entry);
    if (s.ok() && entry.new_dek_hex != "-") {  // header re-wrapped
      s = WriteStringToFile(raw_env_, contents, path, /*sync=*/true);
    }
    if (!s.ok()) {
      break;
    }
    total_bytes += contents.size();
    RecordTick(options_.statistics.get(), Tickers::kShieldDumpFiles, 1);
    RecordTick(options_.statistics.get(), Tickers::kShieldDumpBytes,
               contents.size());
    entries.push_back(std::move(entry));
  }

  if (s.ok()) {
    // The dump manifest is the commit point: a directory without one
    // (interrupted dump) never verifies and never restores.
    s = WriteStringToFile(
        raw_env_,
        EncodeBundleManifest(kDumpBundle, dump_options.target_server_id,
                             entries, dump_options.hmac_key),
        BundleManifestPath(kDumpBundle, dump_dir), /*sync=*/true);
  }

  if (event_logger_ != nullptr) {
    JsonWriter w = event_logger_->NewEvent("dump_end");
    w.Add("path", dump_dir);
    w.Add("files", static_cast<uint64_t>(entries.size()));
    w.Add("entries", total_entries);
    w.Add("bytes", total_bytes);
    w.Add("ok", s.ok());
    if (!s.ok()) {
      w.Add("error", s.ToString());
    }
    event_logger_->Emit(&w);
  }
  return s;
}

Status DB::VerifyDump(const Options& options, const std::string& dump_dir,
                      const RestoreOptions& restore_options) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  std::vector<BundleFileEntry> entries;
  return LoadAndVerifyBundle(kDumpBundle, env, dump_dir,
                             restore_options.hmac_key, &entries,
                             /*images=*/nullptr);
}

Status DB::RestoreDump(const Options& options, const std::string& dump_dir,
                       const std::string& dbname,
                       const RestoreOptions& restore_options) {
  Env* env = options.env != nullptr ? options.env : Env::Default();

  // Verify everything BEFORE touching the target: a bad dump never
  // installs a single file.
  std::vector<BundleFileEntry> entries;
  Status s = LoadAndVerifyBundle(kDumpBundle, env, dump_dir,
                                 restore_options.hmac_key, &entries,
                                 /*images=*/nullptr);
  if (!s.ok()) {
    return s;
  }

  DB* raw = nullptr;
  s = DB::Open(options, dbname, &raw);
  if (!s.ok()) {
    return s;
  }
  std::unique_ptr<DB> db(raw);
  for (const auto& entry : entries) {
    s = db->IngestExternalFile(dump_dir + "/" + entry.name, IngestOptions(),
                               nullptr);
    if (!s.ok()) {
      return s;
    }
  }
  return db->VerifyIntegrity();
}

}  // namespace shield
