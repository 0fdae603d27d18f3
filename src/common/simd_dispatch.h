// Runtime SIMD dispatch policy for the crypto hot path.
//
// The ChaCha20 keystream engine (crypto/chacha20_simd.h) and the wide XOR
// primitives (common/xor_bytes.h) each ship several kernels — scalar, 4-way
// SSE2, 8-way AVX2 on x86-64, 4-way NEON on aarch64 — that produce
// bit-identical output. This module picks which one runs: the best ISA both
// compiled in and supported by the host CPU, decided once per process and
// overridable with PRIVAPPROX_SIMD=off|sse2|avx2|neon for A/B runs and CI.
// Every consumer caches the decision in its own function pointer, so the
// policy costs nothing on the per-call path.

#ifndef PRIVAPPROX_COMMON_SIMD_DISPATCH_H_
#define PRIVAPPROX_COMMON_SIMD_DISPATCH_H_

#include <optional>
#include <vector>

namespace privapprox::simd {

enum class Isa {
  kScalar = 0,  // portable uint64 code paths (PRIVAPPROX_SIMD=off)
  kSse2,        // 4-way 128-bit (x86-64 baseline)
  kAvx2,        // 8-way 256-bit (needs the -mavx2 TU and host support)
  kNeon,        // 4-way 128-bit (aarch64 baseline)
};

// Lower-case name used in logs, metrics labels, bench JSON, and the
// PRIVAPPROX_SIMD override: "off" for kScalar, else "sse2"/"avx2"/"neon".
const char* IsaName(Isa isa);

// Parses a PRIVAPPROX_SIMD value. Accepts the IsaName spellings plus
// "scalar" as an alias for "off"; nullopt for anything else (including
// nullptr/empty, which mean "auto-select").
std::optional<Isa> ParseIsaName(const char* name);

// True when `isa`'s kernels are compiled into this binary AND the host CPU
// executes them. kScalar is always available.
bool IsaAvailable(Isa isa);

// Every available ISA, scalar first — what tests iterate to pin each
// compiled-in kernel against the RFC vectors on this host.
std::vector<Isa> AvailableIsas();

// The ISA the dispatched entry points use: the PRIVAPPROX_SIMD override if
// it names an available ISA (an unavailable request logs a warning and
// falls back), otherwise the best available one. Decided once, on first
// call; the system exports it as the privapprox_simd_isa gauge.
Isa ActiveIsa();

}  // namespace privapprox::simd

#endif  // PRIVAPPROX_COMMON_SIMD_DISPATCH_H_
