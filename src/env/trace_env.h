#ifndef SHIELD_ENV_TRACE_ENV_H_
#define SHIELD_ENV_TRACE_ENV_H_

#include <memory>
#include <string>

#include "env/env.h"

namespace shield {

/// Wraps an Env so every file read/write/sync is captured as an
/// io.read/io.write/io.sync span in the active trace: label = file
/// name, a = offset, b = length, error flag from the status. Spans are
/// only materialised while a trace is active (Tracer::AnyActive()), so
/// the interposed wrapper costs one relaxed atomic load when idle.
///
/// DBImpl interposes this directly above the physical Env — beneath
/// encryption — so the captured offsets/lengths describe ciphertext
/// I/O, which is what trace_replay re-issues against a raw directory.
std::unique_ptr<Env> NewIOTracingEnv(Env* base);

}  // namespace shield

#endif  // SHIELD_ENV_TRACE_ENV_H_
