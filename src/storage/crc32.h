// CRC-32 (IEEE 802.3 polynomial, reflected) — the integrity checksum of
// the durable log's records and of every TCP bus frame.
//
// Two kernels compute it, bit for bit identically: portable slicing-by-8
// over constexpr tables, and on x86-64 a PCLMULQDQ folding kernel
// (crc32_pclmul.cc, its own -mpclmul -msse4.1 translation unit). The
// choice follows the SIMD dispatch policy (common/simd_dispatch.h): the
// folding kernel runs when simd::ActiveIsa() is not kScalar and the CPU
// reports pclmul and sse4.1, so PRIVAPPROX_SIMD=off pins the portable
// kernel. Decided once per process and cached in a function pointer.

#ifndef PRIVAPPROX_STORAGE_CRC32_H_
#define PRIVAPPROX_STORAGE_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace privapprox::storage {

// CRC of `len` bytes starting at `data`, with standard init/final xor.
// `data` may be null when `len` is 0.
uint32_t Crc32(const void* data, size_t len);

// Incremental form: continue a CRC previously returned by Crc32/Crc32Update.
uint32_t Crc32Update(uint32_t crc, const void* data, size_t len);

enum class Crc32Kernel {
  kSlicing8,  // portable: eight table lookups per 8 bytes
  kPclmul,    // carry-less multiply folding, 64 bytes per step
};

// "slice8" or "pclmul" — bench JSON keys and test names.
const char* Crc32KernelName(Crc32Kernel kernel);

// Kernels compiled in and supported by this CPU, portable first.
std::vector<Crc32Kernel> AvailableCrc32Kernels();

// The kernel Crc32/Crc32Update run.
Crc32Kernel ActiveCrc32Kernel();

// Crc32Update on a named kernel, so one process can pin every compiled-in
// kernel against the others. Throws std::invalid_argument if `kernel` is
// not available here.
uint32_t Crc32UpdateWith(Crc32Kernel kernel, uint32_t crc, const void* data,
                         size_t len);

}  // namespace privapprox::storage

#endif  // PRIVAPPROX_STORAGE_CRC32_H_
