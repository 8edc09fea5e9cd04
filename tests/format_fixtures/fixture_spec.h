#ifndef SHIELD_TESTS_FORMAT_FIXTURES_FIXTURE_SPEC_H_
#define SHIELD_TESTS_FORMAT_FIXTURES_FIXTURE_SPEC_H_

// Keys and layout of the golden on-disk fixtures in this directory,
// shared by the program that writes them (make_format_fixtures.cc) and
// the test that reads them (format_fixture_test.cc).

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/cipher.h"
#include "kds/kds.h"

namespace shield {
namespace fixture {

/// The EncFS instance key (AES-128) every EncFS fixture is written
/// under.
inline const std::string kEncFsInstanceKey = "encfs-fixture-k1";

/// SST block size of the SST fixtures: small, so each table has many
/// data blocks.
constexpr size_t kBlockSize = 512;

/// Padding buckets of the padded SHIELD WAL fixture.
inline const std::vector<uint32_t> kPaddingBuckets = {64, 256, 1024};

/// A KDS whose DEKs are a pure function of their id, so the fixtures'
/// DEKs can be served again without storing key material: the n-th
/// created DEK has id bytes {0x5f, ..., 0x5f, n} and AES-128 key bytes
/// (0xa0 + n + i). GetDek answers any id of that shape.
class FixtureKds final : public Kds {
 public:
  Status CreateDek(const std::string& /*server_id*/, crypto::CipherKind kind,
                   Dek* out) override {
    if (kind != crypto::CipherKind::kAes128Ctr) {
      return Status::NotSupported("fixture DEKs are AES-128");
    }
    DekId id;
    id.bytes.fill(0x5f);
    id.bytes.back() = ++created_;
    return GetDek("", id, out);
  }

  Status GetDek(const std::string& /*server_id*/, const DekId& id,
                Dek* out) override {
    for (size_t i = 0; i + 1 < DekId::kSize; i++) {
      if (id.bytes[i] != 0x5f) {
        return Status::NotFound("not a fixture DEK id");
      }
    }
    out->id = id;
    out->cipher = crypto::CipherKind::kAes128Ctr;
    out->key.resize(16);
    for (size_t i = 0; i < out->key.size(); i++) {
      out->key[i] = static_cast<char>(0xa0 + id.bytes.back() + i);
    }
    return Status::OK();
  }

  Status DeleteDek(const std::string& /*server_id*/,
                   const DekId& /*id*/) override {
    return Status::OK();
  }

 private:
  uint8_t created_ = 0;
};

}  // namespace fixture
}  // namespace shield

#endif  // SHIELD_TESTS_FORMAT_FIXTURES_FIXTURE_SPEC_H_
