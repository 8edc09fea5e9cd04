#ifndef SHIELD_LSM_FILE_NAMES_H_
#define SHIELD_LSM_FILE_NAMES_H_

#include <cstdint>
#include <string>

#include "env/env.h"
#include "util/status.h"

namespace shield {

enum class DbFileType {
  kLogFile,        // <number>.log — write-ahead log
  kTableFile,      // <number>.sst
  kDescriptorFile, // MANIFEST-<number>
  kCurrentFile,    // CURRENT
  kTempFile,       // <number>.dbtmp
  kDekCacheFile,   // DEK_CACHE (SHIELD secure DEK cache)
  kLeaseFile,      // LEASE-<16 hex digits> (a read-only instance's lease)
  kLeaseTempFile,  // LEASE-<16 hex digits>.tmp (a lease being written)
};

std::string LogFileName(const std::string& dbname, uint64_t number);
std::string TableFileName(const std::string& dbname, uint64_t number);
std::string DescriptorFileName(const std::string& dbname, uint64_t number);
std::string CurrentFileName(const std::string& dbname);
std::string TempFileName(const std::string& dbname, uint64_t number);
std::string DekCacheFileName(const std::string& dbname);
/// "<dbname>/LEASE-<id as 16 hex digits>" — the file lease of the
/// read-only instance `id` (lsm/file_lease.h). ParseFileName reports
/// `id` as the number.
std::string LeaseFileName(const std::string& dbname, uint64_t id);
/// "<dbname>/LOG" — the plaintext info LOG. Not a DbFileType:
/// ParseFileName rejects it, which is what keeps LOG and its rotations
/// out of RemoveObsoleteFiles garbage collection.
std::string InfoLogFileName(const std::string& dbname);
/// "<dbname>/ROTATION" — the DEK-rotation progress manifest
/// (lsm/rotation_manifest.h). Like LOG, rejected by ParseFileName so
/// garbage collection leaves it alone; a completed rotation removes it
/// explicitly.
std::string RotationManifestFileName(const std::string& dbname);
/// "<dbname>/PENDING_DEK_DELETES" — DekManager's persistent queue of
/// DEK ids whose KDS delete must be retried. Also GC-exempt.
std::string PendingDekDeletesFileName(const std::string& dbname);

/// Parses the plain (directory-less) file name. Returns false if the
/// name is not one of ours.
bool ParseFileName(const std::string& filename, uint64_t* number,
                   DbFileType* type);

/// Atomically points CURRENT at the descriptor with this number.
Status SetCurrentFile(Env* env, const std::string& dbname,
                      uint64_t descriptor_number);

}  // namespace shield

#endif  // SHIELD_LSM_FILE_NAMES_H_
