#include "lsm/file_lease.h"

#include <cstring>
#include <map>
#include <mutex>
#include <utility>

#include "lsm/file_names.h"
#include "util/coding.h"
#include "util/crc32c.h"

namespace shield {

namespace {

constexpr char kMagic[8] = {'S', 'H', 'L', 'E', 'A', 'S', 'E', '1'};
// magic | manifest number | offset | written micros | masked crc32c
constexpr size_t kEncodedSize = sizeof(kMagic) + 3 * sizeof(uint64_t) +
                                sizeof(uint32_t);

// The lease-release listeners of this process. `mu` is held while a
// listener runs, so RemoveLeaseReleaseListener waits for a running call.
struct ListenerRegistry {
  std::mutex mu;
  uint64_t next_token = 1;
  std::map<uint64_t, std::pair<std::string, std::function<void()>>>
      listeners;
};

ListenerRegistry* Registry() {
  static auto* registry = new ListenerRegistry;  // never destroyed
  return registry;
}

}  // namespace

std::string EncodeFileLease(const FileLease& lease) {
  std::string out(kMagic, sizeof(kMagic));
  PutFixed64(&out, lease.pinned.manifest_number);
  PutFixed64(&out, lease.pinned.offset);
  PutFixed64(&out, lease.written_micros);
  PutFixed32(&out, crc32c::Mask(crc32c::Value(out.data(), out.size())));
  return out;
}

Status DecodeFileLease(const Slice& data, FileLease* lease) {
  if (data.size() != kEncodedSize ||
      memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("malformed file lease");
  }
  const size_t body = kEncodedSize - sizeof(uint32_t);
  if (crc32c::Unmask(DecodeFixed32(data.data() + body)) !=
      crc32c::Value(data.data(), body)) {
    return Status::Corruption("file lease checksum mismatch");
  }
  const char* p = data.data() + sizeof(kMagic);
  lease->pinned.manifest_number = DecodeFixed64(p);
  lease->pinned.offset = DecodeFixed64(p + 8);
  lease->written_micros = DecodeFixed64(p + 16);
  return Status::OK();
}

Status WriteFileLease(Env* env, const std::string& dbname, uint64_t id,
                      const FileLease& lease) {
  const std::string fname = LeaseFileName(dbname, id);
  return ReplaceFileAtomically(env, EncodeFileLease(lease), fname + ".tmp",
                               fname);
}

bool OldestLeasedPosition(Env* env, const std::string& dbname,
                          const std::vector<std::string>& lease_files,
                          uint64_t now_micros, ManifestPosition* oldest) {
  bool leased = false;
  for (const std::string& name : lease_files) {
    const std::string fname = dbname + "/" + name;
    std::string data;
    FileLease lease;
    Status s = ReadFileToString(env, fname, &data);
    if (s.IsNotFound()) {
      continue;
    }
    if (s.ok()) {
      s = DecodeFileLease(data, &lease);
    }
    if (!s.ok()) {
      lease.pinned = ManifestPosition();
    } else if (now_micros > lease.written_micros &&
               now_micros - lease.written_micros > kFileLeaseTtlMicros) {
      env->RemoveFile(fname);  // best effort: expired either way
      continue;
    }
    if (!leased || lease.pinned < *oldest) {
      *oldest = lease.pinned;
    }
    leased = true;
  }
  return leased;
}

uint64_t AddLeaseReleaseListener(const std::string& dbname,
                                 std::function<void()> on_release) {
  ListenerRegistry* r = Registry();
  std::lock_guard<std::mutex> lock(r->mu);
  const uint64_t token = r->next_token++;
  r->listeners.emplace(token, std::make_pair(dbname, std::move(on_release)));
  return token;
}

void RemoveLeaseReleaseListener(uint64_t token) {
  ListenerRegistry* r = Registry();
  std::lock_guard<std::mutex> lock(r->mu);
  r->listeners.erase(token);
}

void NotifyLeaseReleased(const std::string& dbname) {
  ListenerRegistry* r = Registry();
  std::lock_guard<std::mutex> lock(r->mu);
  for (const auto& entry : r->listeners) {
    if (entry.second.first == dbname) {
      entry.second.second();
    }
  }
}

}  // namespace shield
