#ifndef SHIELD_SHIELD_DEK_MANAGER_H_
#define SHIELD_SHIELD_DEK_MANAGER_H_

#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>

#include "kds/kds.h"
#include "kds/secure_dek_cache.h"
#include "util/event_logger.h"
#include "util/statistics.h"

namespace shield {

class Env;

/// Per-instance DEK resolution chain (paper Section 5.2): DEKs live in
/// memory while the instance runs; on restart they are resolved from
/// the secure on-disk cache (if configured) before falling back to a
/// KDS round-trip. Newly created and newly fetched DEKs are written
/// through to the secure cache. Thread safe.
class DekManager {
 public:
  /// `kds` must outlive the manager. `secure_cache` may be null.
  /// `stats` (optional, must outlive the manager) receives kds.* and
  /// shield.dek.* tickers plus the KDS latency histogram: they are the
  /// only count of this manager's KDS round trips and cache outcomes.
  DekManager(Kds* kds, std::string server_id, SecureDekCache* secure_cache,
             Statistics* stats = nullptr);

  /// Optional: KDS lookup outcomes are emitted as kds_lookup JSON
  /// events (op, outcome, attempts, micros — never key material).
  /// `event_logger` is not owned and must outlive the manager.
  void SetEventLogger(EventLogger* event_logger) {
    event_logger_ = event_logger;
  }

  /// Requests a brand-new DEK from the KDS (one per file created).
  Status CreateDek(crypto::CipherKind kind, Dek* out);

  /// Resolves a DEK by id: memory -> secure cache -> KDS.
  Status ResolveDek(const DekId& id, Dek* out);

  /// Drops a DEK everywhere (memory, secure cache, KDS). Called when
  /// the file it protected is deleted; after this the old key can no
  /// longer decrypt anything (completing rotation). If the KDS delete
  /// fails transiently even after retries, the id is moved to the
  /// pending-delete queue (persistent when configured) and OK is
  /// returned — the key WILL be destroyed by a later drain instead of
  /// leaking in the KDS forever.
  Status ForgetDek(const DekId& id);

  /// Re-wraps `id` for `target_server_id` (backup/migration): the KDS
  /// issues a new id with the same key material, provisioned to the
  /// target. The result is deliberately NOT cached here — it belongs
  /// to the target identity, not this server.
  Status RewrapDek(const DekId& id, const std::string& target_server_id,
                   Dek* out);

  /// Registers a DEK this instance obtained out of band — an ingested
  /// external SST's embedded DEK after a rewrap onto OUR identity — in
  /// the memory cache (and secure cache), exactly as if CreateDek had
  /// minted it. Reads of the ingested file then resolve locally, and
  /// age-based rotation sees a fresh key.
  void AdoptDek(const Dek& dek);

  /// Backs the pending-delete queue with `path` (one hex DEK id per
  /// line — ids are public, they sit in plaintext file headers) and
  /// loads ids left over from a previous run. `env` must outlive the
  /// manager. Without this the queue is memory-only.
  Status ConfigurePendingDeletes(Env* env, const std::string& path);

  /// Retries one KDS DeleteDek for every queued id; ids that still
  /// fail transiently stay queued for the next drain. Returns the last
  /// transient error (or OK). Safe to call from any thread.
  Status TryDrainPendingDeletes();

  /// Ids currently awaiting a successful KDS delete.
  uint64_t pending_deletes() const;

  /// Age of a DEK created by this manager, or UINT64_MAX when the
  /// creation time is unknown (created before this process started —
  /// i.e. at least as old as the process, so rotation treats unknown
  /// as infinitely old).
  uint64_t DekAgeMicros(const DekId& id) const;

  /// DEKs currently held in memory.
  uint64_t entries() const;

  const std::string& server_id() const { return server_id_; }

 private:
  /// One KDS round trip with retry, latency measurement, ticker /
  /// PerfContext accounting, a kds.rpc trace span and a kds_lookup
  /// event, shared by Create/Resolve/Forget. `op_name` labels the span
  /// and event ("create" / "get" / "delete").
  Status KdsRoundTrip(const char* op_name, const std::function<Status()>& op);

  /// Appends `id` to the pending-delete queue and persists it.
  void EnqueuePendingDelete(const DekId& id);
  /// Rewrites the queue file from pending_. pending_mu_ must be held.
  void PersistPendingLocked();

  Kds* const kds_;
  const std::string server_id_;
  SecureDekCache* const secure_cache_;
  Statistics* const stats_;
  EventLogger* event_logger_ = nullptr;

  mutable std::mutex mu_;
  std::map<DekId, Dek> memory_;
  // Creation time of DEKs created by this manager (for max_dek_age
  // rotation eligibility).
  std::map<DekId, uint64_t> created_micros_;

  mutable std::mutex pending_mu_;
  std::set<DekId> pending_;
  Env* pending_env_ = nullptr;
  std::string pending_path_;
};

}  // namespace shield

#endif  // SHIELD_SHIELD_DEK_MANAGER_H_
