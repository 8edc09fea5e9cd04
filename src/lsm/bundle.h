#ifndef SHIELD_LSM_BUNDLE_H_
#define SHIELD_LSM_BUNDLE_H_

#include <string>
#include <vector>

#include "env/env.h"
#include "util/status.h"

namespace shield {

class DekManager;

/// A signed bundle is a directory of file images plus a manifest that
/// records each file's size and HMAC-SHA256 tag and is itself MAC'd
/// under the bundle key. Backups (db_backup.cc) and range dumps
/// (db_ingest.cc) are both bundles; only the magic and the manifest
/// name differ. The manifest is line-oriented text:
///   <magic>
///   format 1
///   target <server id or ->
///   file <name> <size> <hmac hex> <old dek hex|-> <new dek hex|->
///   ...
///   mac <hmac hex over every preceding byte>
struct BundleKind {
  const char* magic;
  const char* manifest_name;  // basename within the bundle directory
  const char* noun;           // for error messages
};

inline constexpr BundleKind kBackupBundle = {"SHLDBAK1", "BACKUP_MANIFEST",
                                             "backup"};
inline constexpr BundleKind kDumpBundle = {"SHLDDMP1", "DUMP_MANIFEST",
                                           "dump"};

struct BundleFileEntry {
  std::string name;  // basename within the bundle directory
  uint64_t size = 0;
  std::string hmac_hex;
  std::string old_dek_hex = "-";  // "-" when the DEK was not re-wrapped
  std::string new_dek_hex = "-";
};

std::string BundleManifestPath(const BundleKind& kind,
                               const std::string& dir);

std::string EncodeBundleManifest(const BundleKind& kind,
                                 const std::string& target_server_id,
                                 const std::vector<BundleFileEntry>& files,
                                 const std::string& hmac_key);

/// Checks the manifest's MAC, then decodes it. Corruption on a MAC
/// mismatch (tampering or a wrong key) or a malformed line.
Status DecodeBundleManifest(const BundleKind& kind, const std::string& data,
                            const std::string& hmac_key, std::string* target,
                            std::vector<BundleFileEntry>* files);

/// Loads and decodes the manifest in `dir`, then reads and
/// HMAC-verifies every listed file. When `images` is non-null it
/// receives the verified images, aligned with *entries.
Status LoadAndVerifyBundle(const BundleKind& kind, Env* env,
                           const std::string& dir,
                           const std::string& hmac_key,
                           std::vector<BundleFileEntry>* entries,
                           std::vector<std::string>* images);

/// Prepares one file image for a bundle. With a `target_server_id`, a
/// SHIELD file's DEK is re-wrapped for that identity and its header
/// patched; other files are left as they are. Then *entry gets the
/// image's size and HMAC tag.
Status SealBundleFile(DekManager* dek_manager,
                      const std::string& target_server_id,
                      const std::string& hmac_key, std::string* image,
                      BundleFileEntry* entry);

}  // namespace shield

#endif  // SHIELD_LSM_BUNDLE_H_
