#include "util/perf_context.h"

#include <cinttypes>
#include <cstdio>

namespace shield {

namespace {
thread_local PerfContext t_perf_context;
thread_local PerfLevel t_perf_level = PerfLevel::kEnableCount;
thread_local bool t_perf_auto_reset = false;
}  // namespace

void SetPerfLevel(PerfLevel level) { t_perf_level = level; }

PerfLevel GetPerfLevel() { return t_perf_level; }

void SetPerfAutoReset(bool enabled) { t_perf_auto_reset = enabled; }

bool GetPerfAutoReset() { return t_perf_auto_reset; }

PerfContext* GetPerfContext() { return &t_perf_context; }

std::string PerfContext::ToString() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "block_read_count=%" PRIu64 " block_read_bytes=%" PRIu64
      " block_read_micros=%" PRIu64 " block_cache_hit_count=%" PRIu64
      " readahead_bytes=%" PRIu64 " readahead_hit_count=%" PRIu64
      " multiget_keys=%" PRIu64 " multiget_batches=%" PRIu64
      " encrypt_bytes=%" PRIu64 " encrypt_micros=%" PRIu64
      " decrypt_bytes=%" PRIu64 " decrypt_micros=%" PRIu64
      " hmac_compute_count=%" PRIu64 " hmac_verify_count=%" PRIu64
      " hmac_micros=%" PRIu64 " iter_seek_count=%" PRIu64
      " iter_seek_micros=%" PRIu64 " kds_request_count=%" PRIu64
      " kds_wait_micros=%" PRIu64 " memtable_insert_micros=%" PRIu64
      " wal_write_micros=%" PRIu64 " write_stall_micros=%" PRIu64
      " write_group_size=%" PRIu64,
      block_read_count, block_read_bytes, block_read_micros,
      block_cache_hit_count, readahead_bytes, readahead_hit_count,
      multiget_keys, multiget_batches, encrypt_bytes, encrypt_micros,
      decrypt_bytes,
      decrypt_micros, hmac_compute_count, hmac_verify_count, hmac_micros,
      iter_seek_count, iter_seek_micros,
      kds_request_count, kds_wait_micros, memtable_insert_micros,
      wal_write_micros, write_stall_micros, write_group_size);
  return std::string(buf);
}

}  // namespace shield
