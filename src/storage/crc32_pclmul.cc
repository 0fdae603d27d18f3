// PCLMULQDQ folding kernel for the reflected IEEE CRC-32, after Gopal et
// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction" (Intel, 2009). The only storage/ file compiled with
// -mpclmul -msse4.1; crc32.cc calls it only after CPUID reports both.
//
// Four 128-bit accumulators fold 64 bytes per step, collapse into one with
// 16-byte folds, and the 128-bit remainder is reduced to 64 and then 32
// bits before a Barrett reduction leaves the 32-bit register. Each fold
// multiplies the accumulator's two halves by x^(d±32) mod P for the fold
// distance d (512 bits, then 128), all bit-reflected:
//   k1/k2 = 0x154442bd4 / 0x1c6e41596   64-byte fold
//   k3/k4 = 0x1751997d0 / 0x0ccaa009e   16-byte fold, then 128 -> 64
//   k5    = 0x163cd6124                 64 -> 32
//   P'/mu = 0x1db710641 / 0x1f7011641   Barrett: reflected P and floor(x^64/P)
// Only whole 16-byte blocks are folded; slicing-by-8 finishes the len % 16
// tail, and inputs under 64 bytes go to slicing-by-8 entirely.

#include <immintrin.h>

#include "storage/crc32_internal.h"

namespace privapprox::storage::detail {
namespace {

__m128i Load(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// acc * x^d mod P, xored into the next block: low half times k.lo, high
// half times k.hi.
__m128i Fold(__m128i acc, __m128i next, __m128i k) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

}  // namespace

uint32_t Crc32Pclmul(uint32_t reg, const uint8_t* data, size_t len) {
  if (len < 64) {
    return Crc32Slicing8(reg, data, len);
  }
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);

  const size_t folded = len & ~size_t{15};
  const uint8_t* const end = data + folded;
  __m128i x0 =
      _mm_xor_si128(Load(data), _mm_cvtsi32_si128(static_cast<int>(reg)));
  __m128i x1 = Load(data + 16);
  __m128i x2 = Load(data + 32);
  __m128i x3 = Load(data + 48);
  const uint8_t* p = data + 64;
  for (; end - p >= 64; p += 64) {
    x0 = Fold(x0, Load(p), k1k2);
    x1 = Fold(x1, Load(p + 16), k1k2);
    x2 = Fold(x2, Load(p + 32), k1k2);
    x3 = Fold(x3, Load(p + 48), k1k2);
  }
  x0 = Fold(x0, x1, k3k4);
  x0 = Fold(x0, x2, k3k4);
  x0 = Fold(x0, x3, k3k4);
  for (; p != end; p += 16) {
    x0 = Fold(x0, Load(p), k3k4);
  }

  // 128 -> 64 bits: the low half times k4, into the high half.
  __m128i t = _mm_clmulepi64_si128(x0, k3k4, 0x10);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), t);
  // 64 -> 32 bits: the low word times k5, into the rest.
  t = _mm_srli_si128(x0, 4);
  x0 = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), k5, 0x00);
  x0 = _mm_xor_si128(x0, t);
  // Barrett reduction by mu and P' leaves the register in bits 32..63.
  t = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly_mu, 0x00);
  x0 = _mm_xor_si128(x0, t);
  reg = static_cast<uint32_t>(_mm_extract_epi32(x0, 1));

  return Crc32Slicing8(reg, end, len - folded);
}

}  // namespace privapprox::storage::detail
