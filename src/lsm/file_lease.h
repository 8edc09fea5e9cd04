#ifndef SHIELD_LSM_FILE_LEASE_H_
#define SHIELD_LSM_FILE_LEASE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "env/env.h"
#include "lsm/version_edit.h"
#include "util/slice.h"
#include "util/status.h"

namespace shield {

// File leases: how a read-only instance that shares the writer's
// storage keeps the files of its installed view alive.
//
// Each read-only instance publishes one lease file, LEASE-<id>, in the
// DB directory. The lease pins the ManifestPosition its view was built
// from. The writer stamps each SST and WAL with its own manifest
// position when garbage collection first finds the file obsolete, and
// deletes the file only once no live lease pins a position before that
// stamp. A lease whose timestamp is older than kFileLeaseTtlMicros is
// dead: the writer ignores it and removes it, so a crashed instance
// cannot hold space forever.
//
// A writer retries deferred deletions on each of its GC passes and, while
// any are deferred, every kDeferredDeletionRetryMicros. A read-only
// instance in the writer's own process does not wait for either: when it
// removes its lease or moves it up, it runs the GC of every writer of that
// DB in the process (the lease-release listeners below).

/// How long a lease stays in force after it was written. A read-only
/// instance must catch up (which rewrites its lease) at least this
/// often to keep its view readable.
constexpr uint64_t kFileLeaseTtlMicros = 10ull * 60 * 1000 * 1000;

/// How often a writer that has deferred deletions retries them with no
/// other GC pass in between (real time). Bounds how long a file released
/// by an instance in another process, or kept by a lease that has since
/// expired, stays on storage under an idle writer.
constexpr uint64_t kDeferredDeletionRetryMicros = kFileLeaseTtlMicros / 4;

struct FileLease {
  /// The position of the view the instance has installed.
  ManifestPosition pinned;
  /// NowMicros() (util/clock.h) when the lease was written.
  uint64_t written_micros = 0;
};

std::string EncodeFileLease(const FileLease& lease);
Status DecodeFileLease(const Slice& data, FileLease* lease);

/// Publishes `lease` as the lease of instance `id`: writes and syncs a
/// temp file, then renames it over the old lease, so the old lease
/// stays in force until the new one replaces it whole.
/// A temp file left behind (the instance died between the write and
/// the rename) is removed by the writer's GC once it has seen the file
/// for longer than kFileLeaseTtlMicros.
Status WriteFileLease(Env* env, const std::string& dbname, uint64_t id,
                      const FileLease& lease);

/// Reads the leases named in `lease_files` (names within `dbname`).
/// Returns false when none of them is live; otherwise sets *oldest to
/// the earliest position a live lease pins.
///  - A lease that cannot be read or decoded pins {0, 0}, which keeps
///    every file: a read error never releases one.
///  - A lease that no longer exists was released by its instance.
///  - A lease written more than kFileLeaseTtlMicros before
///    `now_micros` has expired: it is removed and pins nothing.
bool OldestLeasedPosition(Env* env, const std::string& dbname,
                          const std::vector<std::string>& lease_files,
                          uint64_t now_micros, ManifestPosition* oldest);

/// Registers `on_release` to run whenever a read-only instance of the DB
/// at `dbname` in this process releases files (NotifyLeaseReleased).
/// Returns a token for RemoveLeaseReleaseListener.
uint64_t AddLeaseReleaseListener(const std::string& dbname,
                                 std::function<void()> on_release);

/// Unregisters a listener. On return no call of it is running or will
/// start.
void RemoveLeaseReleaseListener(uint64_t token);

/// Runs, on the calling thread, every listener registered for `dbname`.
/// Called by a read-only instance after it removed its lease or moved it
/// up; the caller must hold no DB mutex.
void NotifyLeaseReleased(const std::string& dbname);

}  // namespace shield

#endif  // SHIELD_LSM_FILE_LEASE_H_
