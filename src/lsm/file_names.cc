#include "lsm/file_names.h"

#include <cstdio>

namespace shield {

namespace {

std::string MakeFileName(const std::string& dbname, uint64_t number,
                         const char* suffix) {
  char buf[64];
  snprintf(buf, sizeof(buf), "/%06llu.%s",
           static_cast<unsigned long long>(number), suffix);
  return dbname + buf;
}

}  // namespace

std::string LogFileName(const std::string& dbname, uint64_t number) {
  return MakeFileName(dbname, number, "log");
}

std::string TableFileName(const std::string& dbname, uint64_t number) {
  return MakeFileName(dbname, number, "sst");
}

std::string DescriptorFileName(const std::string& dbname, uint64_t number) {
  char buf[64];
  snprintf(buf, sizeof(buf), "/MANIFEST-%06llu",
           static_cast<unsigned long long>(number));
  return dbname + buf;
}

std::string CurrentFileName(const std::string& dbname) {
  return dbname + "/CURRENT";
}

std::string TempFileName(const std::string& dbname, uint64_t number) {
  return MakeFileName(dbname, number, "dbtmp");
}

std::string DekCacheFileName(const std::string& dbname) {
  return dbname + "/DEK_CACHE";
}

std::string LeaseFileName(const std::string& dbname, uint64_t id) {
  char buf[32];
  snprintf(buf, sizeof(buf), "/LEASE-%016llx",
           static_cast<unsigned long long>(id));
  return dbname + buf;
}

std::string InfoLogFileName(const std::string& dbname) {
  return dbname + "/LOG";
}

std::string RotationManifestFileName(const std::string& dbname) {
  return dbname + "/ROTATION";
}

std::string PendingDekDeletesFileName(const std::string& dbname) {
  return dbname + "/PENDING_DEK_DELETES";
}

bool ParseFileName(const std::string& filename, uint64_t* number,
                   DbFileType* type) {
  if (filename == "CURRENT") {
    *number = 0;
    *type = DbFileType::kCurrentFile;
    return true;
  }
  if (filename == "DEK_CACHE" || filename == "DEK_CACHE.tmp") {
    *number = 0;
    *type = DbFileType::kDekCacheFile;
    return true;
  }
  const bool lease_temp =
      filename.size() == 26 && filename.compare(22, 4, ".tmp") == 0;
  if ((filename.size() == 22 || lease_temp) &&
      filename.compare(0, 6, "LEASE-") == 0) {
    uint64_t id = 0;
    for (size_t i = 6; i < 22; i++) {
      const char c = filename[i];
      if (c >= '0' && c <= '9') {
        id = (id << 4) | static_cast<uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        id = (id << 4) | static_cast<uint64_t>(c - 'a' + 10);
      } else {
        return false;
      }
    }
    *number = id;
    *type = lease_temp ? DbFileType::kLeaseTempFile : DbFileType::kLeaseFile;
    return true;
  }
  if (filename.compare(0, 9, "MANIFEST-") == 0) {
    const char* p = filename.c_str() + 9;
    char* end = nullptr;
    const unsigned long long num = strtoull(p, &end, 10);
    if (end == p || *end != '\0') {
      return false;
    }
    *number = num;
    *type = DbFileType::kDescriptorFile;
    return true;
  }
  // <number>.<suffix>
  char* end = nullptr;
  const unsigned long long num = strtoull(filename.c_str(), &end, 10);
  if (end == filename.c_str() || *end != '.') {
    return false;
  }
  const std::string suffix = end + 1;
  if (suffix == "log") {
    *type = DbFileType::kLogFile;
  } else if (suffix == "sst") {
    *type = DbFileType::kTableFile;
  } else if (suffix == "dbtmp") {
    *type = DbFileType::kTempFile;
  } else {
    return false;
  }
  *number = num;
  return true;
}

Status SetCurrentFile(Env* env, const std::string& dbname,
                      uint64_t descriptor_number) {
  std::string contents = DescriptorFileName("", descriptor_number);
  // Strip the leading '/' that MakeFileName-style helpers add.
  contents = contents.substr(1) + "\n";
  return ReplaceFileAtomically(env, contents,
                               TempFileName(dbname, descriptor_number),
                               CurrentFileName(dbname));
}

}  // namespace shield
