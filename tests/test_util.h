#ifndef SHIELD_TESTS_TEST_UTIL_H_
#define SHIELD_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "env/env.h"
#include "gtest/gtest.h"

namespace shield {
namespace test {

/// Creates a fresh scratch directory under /tmp for a test and removes
/// it (recursively, one level) on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name) {
    static int counter = 0;
    char buf[256];
    snprintf(buf, sizeof(buf), "/tmp/shield_test_%s_%d_%d", name.c_str(),
             getpid(), counter++);
    path_ = buf;
    Cleanup();
    Env::Default()->CreateDirIfMissing(path_);
  }

  ~ScratchDir() { Cleanup(); }

  const std::string& path() const { return path_; }

 private:
  void Cleanup() {
    Env* env = Env::Default();
    std::vector<std::string> children;
    if (env->GetChildren(path_, &children).ok()) {
      for (const std::string& child : children) {
        env->RemoveFile(path_ + "/" + child);
      }
    }
    env->RemoveDir(path_);
  }

  std::string path_;
};

/// Passes everything through and counts the table files (`.sst`)
/// opened for random-access reads, so a test can tell that a
/// background pass has reached its first SST without sleeping.
class SstOpenCountingEnv : public EnvWrapper {
 public:
  explicit SstOpenCountingEnv(Env* target) : EnvWrapper(target) {}

  Status NewRandomAccessFile(const std::string& f,
                             std::unique_ptr<RandomAccessFile>* r) override {
    if (f.size() > 4 && f.compare(f.size() - 4, 4, ".sst") == 0) {
      sst_opens.fetch_add(1);
    }
    return EnvWrapper::NewRandomAccessFile(f, r);
  }

  std::atomic<int> sst_opens{0};
};

/// Hex decode helper for test vectors.
inline std::string FromHex(const std::string& hex) {
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return 0;
  };
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>((nibble(hex[i]) << 4) | nibble(hex[i + 1])));
  }
  return out;
}

inline std::string ToHex(const std::string& data) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (unsigned char c : data) {
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xf]);
  }
  return out;
}

}  // namespace test
}  // namespace shield

#endif  // SHIELD_TESTS_TEST_UTIL_H_
