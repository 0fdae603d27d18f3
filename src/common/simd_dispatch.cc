#include "common/simd_dispatch.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace privapprox::simd {
namespace {

bool CpuSupports(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kSse2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("sse2") != 0;
#else
      return false;
#endif
    case Isa::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Isa::kNeon:
#if defined(__ARM_NEON)
      // NEON is baseline on aarch64; on 32-bit ARM the macro is only set
      // when the compiler already targets it.
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool CompiledIn(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kSse2:
#if defined(__SSE2__)
      return true;
#else
      return false;
#endif
    case Isa::kAvx2:
#if defined(PRIVAPPROX_HAVE_AVX2_TU)
      return true;
#else
      return false;
#endif
    case Isa::kNeon:
#if defined(__ARM_NEON)
      return true;
#else
      return false;
#endif
  }
  return false;
}

Isa BestAvailable() {
  for (Isa isa : {Isa::kAvx2, Isa::kSse2, Isa::kNeon}) {
    if (IsaAvailable(isa)) {
      return isa;
    }
  }
  return Isa::kScalar;
}

Isa DecideActiveIsa() {
  const char* env = std::getenv("PRIVAPPROX_SIMD");
  if (env != nullptr && env[0] != '\0') {
    const std::optional<Isa> requested = ParseIsaName(env);
    if (!requested.has_value()) {
      std::fprintf(stderr,
                   "PRIVAPPROX_SIMD=%s is not off|sse2|avx2|neon; "
                   "auto-selecting\n",
                   env);
    } else if (!IsaAvailable(*requested)) {
      std::fprintf(stderr,
                   "PRIVAPPROX_SIMD=%s not available on this host/build; "
                   "auto-selecting\n",
                   env);
    } else {
      return *requested;
    }
  }
  return BestAvailable();
}

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "off";
    case Isa::kSse2:
      return "sse2";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
  }
  return "off";
}

std::optional<Isa> ParseIsaName(const char* name) {
  if (name == nullptr) {
    return std::nullopt;
  }
  if (std::strcmp(name, "off") == 0 || std::strcmp(name, "scalar") == 0) {
    return Isa::kScalar;
  }
  if (std::strcmp(name, "sse2") == 0) {
    return Isa::kSse2;
  }
  if (std::strcmp(name, "avx2") == 0) {
    return Isa::kAvx2;
  }
  if (std::strcmp(name, "neon") == 0) {
    return Isa::kNeon;
  }
  return std::nullopt;
}

bool IsaAvailable(Isa isa) { return CompiledIn(isa) && CpuSupports(isa); }

std::vector<Isa> AvailableIsas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kScalar, Isa::kSse2, Isa::kAvx2, Isa::kNeon}) {
    if (IsaAvailable(isa)) {
      out.push_back(isa);
    }
  }
  return out;
}

Isa ActiveIsa() {
  static const Isa active = DecideActiveIsa();
  return active;
}

}  // namespace privapprox::simd
