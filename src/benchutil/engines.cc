#include "benchutil/engines.h"

#include "crypto/secure_random.h"

namespace shield {
namespace bench {

const char* EngineName(Engine engine) {
  switch (engine) {
    case Engine::kUnencrypted:
      return "unencrypted";
    case Engine::kEncFs:
      return "encfs";
    case Engine::kEncFsWalBuf:
      return "encfs+walbuf";
    case Engine::kShield:
      return "shield";
    case Engine::kShieldWalBuf:
      return "shield+walbuf";
  }
  return "unknown";
}

void ApplyEngine(Engine engine, Options* options, size_t wal_buffer_size) {
  EncryptionOptions& enc = options->encryption;
  switch (engine) {
    case Engine::kUnencrypted:
      enc.mode = EncryptionMode::kNone;
      return;
    case Engine::kEncFs:
    case Engine::kEncFsWalBuf:
      enc.mode = EncryptionMode::kEncFS;
      enc.instance_key =
          crypto::SecureRandomString(crypto::CipherKeySize(enc.cipher));
      enc.wal_buffer_size =
          engine == Engine::kEncFsWalBuf ? wal_buffer_size : 0;
      return;
    case Engine::kShield:
    case Engine::kShieldWalBuf:
      enc.mode = EncryptionMode::kShield;
      enc.wal_buffer_size =
          engine == Engine::kShieldWalBuf ? wal_buffer_size : 0;
      return;
  }
}

std::vector<Engine> AllEngines() {
  return {Engine::kUnencrypted, Engine::kEncFs, Engine::kEncFsWalBuf,
          Engine::kShield, Engine::kShieldWalBuf};
}

std::vector<Engine> CoreEngines() {
  return {Engine::kUnencrypted, Engine::kEncFsWalBuf, Engine::kShieldWalBuf};
}

}  // namespace bench
}  // namespace shield
