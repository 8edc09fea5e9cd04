#ifndef SHIELD_DS_COMPACTION_WORKER_H_
#define SHIELD_DS_COMPACTION_WORKER_H_

#include <memory>
#include <string>

#include "kds/kds.h"
#include "lsm/compaction_service.h"
#include "lsm/options.h"
#include "shield/dek_manager.h"
#include "shield/file_crypto.h"
#include "util/thread_pool.h"

namespace shield {

/// A compaction worker running on (or near) the storage cluster —
/// the paper's offloaded-compaction case study (Section 5.6). It
/// receives only metadata (file numbers) from the primary; input DEKs
/// are resolved from the DEK-IDs embedded in the SST headers via the
/// worker's own KDS client, and outputs are encrypted under fresh DEKs
/// requested by the worker (DEK rotation happens on the worker, not
/// the primary).
class RemoteCompactionWorker final : public CompactionService {
 public:
  struct WorkerOptions {
    /// Storage-side Env the worker uses to access shared files.
    Env* env = nullptr;
    /// Engine options (block size, comparator, ...). Encryption mode
    /// selects plaintext vs SHIELD output files; `statistics`, when
    /// set, counts the worker's KDS round trips (input DEK fetches and
    /// output DEK creations) in its kds.* tickers.
    Options db_options;
    /// Identity this worker presents to the KDS.
    std::string server_id = "compaction-worker-1";
    /// Optional per-node tracer (non-exclusive). When set, RunCompaction
    /// binds its thread to this tracer so worker-side spans land in the
    /// worker node's trace file, parented to the dispatching DB op via
    /// CompactionJobSpec::trace.
    Tracer* tracer = nullptr;
  };

  explicit RemoteCompactionWorker(const WorkerOptions& options);
  ~RemoteCompactionWorker() override;

  Status RunCompaction(const CompactionJobSpec& job,
                       CompactionJobResult* result) override;

  uint64_t jobs_run() const { return jobs_run_; }

 private:
  WorkerOptions options_;
  std::shared_ptr<Kds> kds_;
  std::unique_ptr<DekManager> dek_manager_;
  std::unique_ptr<ThreadPool> encryption_pool_;
  std::unique_ptr<DataFileFactory> files_;
  std::unique_ptr<InternalKeyComparator> icmp_;
  uint64_t jobs_run_ = 0;
};

}  // namespace shield

#endif  // SHIELD_DS_COMPACTION_WORKER_H_
