#include "ds/compaction_worker.h"

#include <algorithm>
#include <vector>

#include "kds/local_kds.h"
#include "lsm/file_names.h"
#include "lsm/merger.h"
#include "lsm/sst_builder.h"
#include "lsm/sst_reader.h"
#include "util/clock.h"
#include "util/trace.h"

namespace shield {

RemoteCompactionWorker::RemoteCompactionWorker(const WorkerOptions& options)
    : options_(options) {
  if (options_.env == nullptr) {
    options_.env = Env::Default();
  }
  Options& db_options = options_.db_options;
  if (db_options.comparator == nullptr) {
    db_options.comparator = BytewiseComparator();
  }
  icmp_ = std::make_unique<InternalKeyComparator>(db_options.comparator);

  if (db_options.encryption.mode == EncryptionMode::kShield) {
    kds_ = db_options.encryption.kds;
    if (kds_ == nullptr) {
      kds_ = std::make_shared<LocalKds>();
    }
    dek_manager_ = std::make_unique<DekManager>(kds_.get(),
                                                options_.server_id,
                                                /*secure_cache=*/nullptr);
    if (db_options.encryption.encryption_threads > 1) {
      encryption_pool_ = std::make_unique<ThreadPool>(
          static_cast<size_t>(db_options.encryption.encryption_threads));
    }
    files_ = NewShieldFileFactory(options_.env, dek_manager_.get(),
                                  db_options.encryption,
                                  encryption_pool_.get());
  } else {
    files_ = NewPlainFileFactory(options_.env);
  }
}

RemoteCompactionWorker::~RemoteCompactionWorker() = default;

Status RemoteCompactionWorker::RunCompaction(const CompactionJobSpec& job,
                                             CompactionJobResult* result) {
  // Worker-side spans land in the worker node's trace (when one is
  // bound); the RPC span parents to the dispatching DB op when the
  // primary shipped its context, else to whatever is open on this
  // thread (in-process offload without a per-node tracer).
  ScopedTracerBinding binding(options_.tracer);
  TraceSpan span(SpanType::kCompactionRpc,
                 job.trace.valid() ? job.trace.parent_span_id
                                   : Tracer::CurrentSpanId(),
                 Slice());
  span.SetArgs(static_cast<uint64_t>(job.level),
               job.inputs0.size() + job.inputs1.size());
  const uint64_t start_micros = NowMicros();
  jobs_run_++;
  result->outputs.clear();
  result->bytes_read = 0;
  result->bytes_written = 0;

  // Open all input tables. DEK resolution happens inside the file
  // factory from each file's header (metadata-enabled DEK sharing).
  std::vector<std::unique_ptr<Table>> tables;
  std::vector<Iterator*> iters;
  Status s;
  ReadOptions read_options;
  read_options.fill_cache = false;

  auto open_inputs = [&](const std::vector<CompactionInput>& inputs) {
    for (const auto& [number, size] : inputs) {
      const std::string fname = TableFileName(job.dbname, number);
      std::unique_ptr<RandomAccessFile> file;
      s = files_->NewRandomAccessFile(fname, &file);
      if (!s.ok()) {
        return;
      }
      std::unique_ptr<Table> table;
      s = Table::Open(options_.db_options, icmp_.get(), fname, std::move(file),
                      size, /*block_cache=*/nullptr, &table);
      if (!s.ok()) {
        return;
      }
      iters.push_back(table->NewIterator(read_options));
      tables.push_back(std::move(table));
      result->bytes_read += size;
    }
  };
  open_inputs(job.inputs0);
  if (s.ok()) {
    open_inputs(job.inputs1);
  }
  if (!s.ok()) {
    for (Iterator* iter : iters) {
      delete iter;
    }
    return s;
  }

  std::unique_ptr<Iterator> input(NewMergingIterator(
      icmp_.get(), iters.data(), static_cast<int>(iters.size())));
  input->SeekToFirst();

  // Merge with the standard drop rules: shadowed versions older than
  // the snapshot horizon, and tombstones when the output is
  // bottommost.
  std::unique_ptr<WritableFile> outfile;
  std::unique_ptr<TableBuilder> builder;
  size_t next_output_index = 0;
  CompactionOutputMeta current;

  std::string current_user_key;
  bool has_current_user_key = false;
  SequenceNumber last_sequence_for_key = kMaxSequenceNumber;
  const Comparator* ucmp = icmp_->user_comparator();

  auto open_output = [&]() -> Status {
    if (next_output_index >= job.output_numbers.size()) {
      return Status::Busy("compaction worker ran out of output numbers");
    }
    current = CompactionOutputMeta();
    current.number = job.output_numbers[next_output_index++];
    Status os = files_->NewWritableFile(
        TableFileName(job.dbname, current.number), FileKind::kSst, &outfile);
    if (!os.ok()) {
      return os;
    }
    builder = std::make_unique<TableBuilder>(options_.db_options, icmp_.get(),
                                             outfile.get());
    return Status::OK();
  };

  auto finish_output = [&]() -> Status {
    Status fs = builder->Finish();
    const uint64_t entries = builder->NumEntries();
    current.file_size = builder->FileSize();
    builder.reset();
    if (fs.ok()) {
      fs = outfile->Sync();
    }
    if (fs.ok()) {
      fs = outfile->Close();
    }
    outfile.reset();
    if (fs.ok() && entries > 0) {
      result->outputs.push_back(current);
      result->bytes_written += current.file_size;
    } else if (entries == 0) {
      files_->DeleteFile(TableFileName(job.dbname, current.number));
    }
    return fs;
  };

  while (s.ok() && input->Valid()) {
    const Slice key = input->key();
    bool drop = false;
    ParsedInternalKey ikey;
    if (!ParseInternalKey(key, &ikey)) {
      has_current_user_key = false;
      last_sequence_for_key = kMaxSequenceNumber;
    } else {
      if (!has_current_user_key ||
          ucmp->Compare(ikey.user_key, Slice(current_user_key)) != 0) {
        current_user_key.assign(ikey.user_key.data(), ikey.user_key.size());
        has_current_user_key = true;
        last_sequence_for_key = kMaxSequenceNumber;
      }
      if (last_sequence_for_key <= job.smallest_snapshot) {
        drop = true;
      } else if (ikey.type == kTypeDeletion &&
                 ikey.sequence <= job.smallest_snapshot && job.bottommost) {
        drop = true;
      }
      last_sequence_for_key = ikey.sequence;
    }

    if (!drop) {
      if (builder == nullptr) {
        s = open_output();
        if (!s.ok()) {
          break;
        }
      }
      if (builder->NumEntries() == 0) {
        current.smallest_internal_key = key.ToString();
      }
      current.largest_internal_key = key.ToString();
      current.largest_seq = std::max(current.largest_seq,
                                     ExtractSequence(key));
      builder->Add(key, input->value());
      if (job.max_output_file_size > 0 &&
          builder->FileSize() >= job.max_output_file_size) {
        s = finish_output();
      }
    }
    if (s.ok()) {
      input->Next();
    }
  }

  if (s.ok()) {
    s = input->status();
  }
  if (s.ok() && builder != nullptr) {
    s = finish_output();
  } else if (builder != nullptr) {
    builder->Abandon();
    builder.reset();
    outfile.reset();
  }

  result->micros = NowMicros() - start_micros;
  return s;
}

}  // namespace shield
