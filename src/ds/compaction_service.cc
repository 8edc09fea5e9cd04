#include "ds/compaction_worker.h"

#include <vector>

#include "kds/local_kds.h"
#include "lsm/compaction_job.h"
#include "lsm/file_names.h"
#include "lsm/merger.h"
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
    dek_manager_ = std::make_unique<DekManager>(
        kds_.get(), options_.server_id, /*secure_cache=*/nullptr,
        db_options.statistics.get());
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
  const ReadOptions read_options = CompactionReadOptions();

  auto open_inputs = [&](const std::vector<CompactionInput>& inputs) {
    for (const CompactionInput& in : inputs) {
      const std::string fname = TableFileName(job.dbname, in.number);
      std::unique_ptr<RandomAccessFile> file;
      s = files_->NewRandomAccessFile(fname, &file);
      if (!s.ok()) {
        return;
      }
      std::unique_ptr<Table> table;
      s = Table::Open(options_.db_options, icmp_.get(), fname, std::move(file),
                      in.file_size, in.tail_size, /*block_cache=*/{}, &table);
      if (!s.ok()) {
        return;
      }
      iters.push_back(table->NewIterator(read_options));
      tables.push_back(std::move(table));
      result->bytes_read += in.file_size;
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

  // The worker knows no key ranges below the output level, so a
  // tombstone is dropped only when the output is bottommost.
  CompactionJob merge;
  merge.options = &options_.db_options;
  merge.icmp = icmp_.get();
  merge.files = files_.get();
  merge.dbname = job.dbname;
  merge.smallest_snapshot = job.smallest_snapshot;
  if (job.max_output_file_size > 0) {
    merge.max_output_file_size = job.max_output_file_size;
  }
  merge.nothing_below = [&job](const Slice&) { return job.bottommost; };
  size_t next_output_index = 0;
  merge.new_file_number = [&](uint64_t* number) {
    if (next_output_index >= job.output_numbers.size()) {
      return Status::Busy("compaction worker ran out of output numbers");
    }
    *number = job.output_numbers[next_output_index++];
    return Status::OK();
  };
  s = merge.Run(input.get(), &result->outputs);
  for (const CompactionOutputMeta& out : result->outputs) {
    result->bytes_written += out.file_size;
  }

  result->micros = NowMicros() - start_micros;
  return s;
}

}  // namespace shield
