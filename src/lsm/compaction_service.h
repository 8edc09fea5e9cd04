#ifndef SHIELD_LSM_COMPACTION_SERVICE_H_
#define SHIELD_LSM_COMPACTION_SERVICE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "lsm/format.h"
#include "util/status.h"
#include "util/trace.h"

namespace shield {

/// One SST input to an offloaded compaction. The worker resolves each
/// file's DEK from the DEK-ID embedded in the file's own header — no
/// file->key mapping crosses the wire (the paper's metadata-enabled DEK
/// sharing, Section 5.4).
struct CompactionInput {
  uint64_t number = 0;
  uint64_t file_size = 0;  // logical size
  /// FileMetaData::tail_size: the worker opens the table with one tail
  /// read, as the primary's table cache does.
  uint64_t tail_size = 0;
};

/// A compaction job shipped to a remote worker in a disaggregated
/// setup. Both sides access the same shared storage; only metadata
/// travels.
struct CompactionJobSpec {
  std::string dbname;  // database path on shared storage
  int level = 0;
  int output_level = 0;
  /// Tombstones may be dropped (output is bottommost data).
  bool bottommost = false;
  /// Entries older than this sequence and shadowed may be dropped.
  SequenceNumber smallest_snapshot = 0;
  uint64_t max_output_file_size = 0;  // 0 = unbounded
  std::vector<CompactionInput> inputs0;  // files at `level`
  std::vector<CompactionInput> inputs1;  // files at `output_level`
  /// File numbers pre-allocated by the primary for outputs; the worker
  /// consumes them in order.
  std::vector<uint64_t> output_numbers;
  /// Tracing context of the dispatching DB operation (all zero when no
  /// trace is active on the primary). The worker parents its
  /// compaction-RPC span to `trace.parent_span_id`, so stitched
  /// per-node trace files form one causal tree across the fabric.
  TraceContext trace;
};

/// Metadata of one output file produced by the worker.
struct CompactionOutputMeta {
  uint64_t number = 0;
  uint64_t file_size = 0;
  std::string smallest_internal_key;
  std::string largest_internal_key;
  /// Highest sequence number in the output (level-0 recency metadata).
  SequenceNumber largest_seq = 0;
  /// TableBuilder::TailSize of the output (FileMetaData::tail_size).
  uint64_t tail_size = 0;
};

struct CompactionJobResult {
  std::vector<CompactionOutputMeta> outputs;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t micros = 0;
};

/// Executes compactions on behalf of a DB instance — the offloaded
/// compaction of Disaggregated-RocksDB / CaaS-LSM that the paper's DS
/// evaluation uses (Section 5.6). Implementations run in-process (for
/// tests) or model a remote compaction server over simulated-network
/// storage (src/ds/).
class CompactionService {
 public:
  virtual ~CompactionService() = default;

  /// Runs the job to completion; on success fills *result with the
  /// produced files. Must be thread-compatible with one outstanding
  /// job per DB.
  virtual Status RunCompaction(const CompactionJobSpec& job,
                               CompactionJobResult* result) = 0;
};

}  // namespace shield

#endif  // SHIELD_LSM_COMPACTION_SERVICE_H_
