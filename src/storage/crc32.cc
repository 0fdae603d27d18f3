#include "storage/crc32.h"

#include <array>
#include <stdexcept>
#include <string>

#include "common/byte_order.h"
#include "common/simd_dispatch.h"
#include "storage/crc32_internal.h"

namespace privapprox::storage {
namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;  // reflected 0x04C11DB7

// kTables[0] is the classic byte table; kTables[k][b] is the register after
// byte b is followed by k zero bytes, so eight lookups advance 8 bytes.
using SliceTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr SliceTables BuildTables() {
  SliceTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPolynomial : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr SliceTables kTables = BuildTables();

using KernelFn = uint32_t (*)(uint32_t, const uint8_t*, size_t);

bool CpuSupportsPclmul() {
#if defined(PRIVAPPROX_HAVE_PCLMUL_TU)
  return __builtin_cpu_supports("pclmul") != 0 &&
         __builtin_cpu_supports("sse4.1") != 0;
#else
  return false;
#endif
}

KernelFn KernelFnFor(Crc32Kernel kernel) {
#if defined(PRIVAPPROX_HAVE_PCLMUL_TU)
  if (kernel == Crc32Kernel::kPclmul) {
    return &detail::Crc32Pclmul;
  }
#endif
  (void)kernel;
  return &detail::Crc32Slicing8;
}

KernelFn ActiveKernelFn() {
  static const KernelFn fn = KernelFnFor(ActiveCrc32Kernel());
  return fn;
}

}  // namespace

namespace detail {

uint32_t Crc32Slicing8(uint32_t reg, const uint8_t* data, size_t len) {
  for (; len >= 8; data += 8, len -= 8) {
    const uint32_t lo = LoadLe<uint32_t>(data) ^ reg;
    const uint32_t hi = LoadLe<uint32_t>(data + 4);
    reg = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
          kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
          kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) {
    reg = (reg >> 8) ^ kTables[0][(reg ^ *data) & 0xFF];
  }
  return reg;
}

}  // namespace detail

uint32_t Crc32Update(uint32_t crc, const void* data, size_t len) {
  return ~ActiveKernelFn()(~crc, static_cast<const uint8_t*>(data), len);
}

uint32_t Crc32(const void* data, size_t len) {
  return Crc32Update(0, data, len);
}

const char* Crc32KernelName(Crc32Kernel kernel) {
  return kernel == Crc32Kernel::kPclmul ? "pclmul" : "slice8";
}

std::vector<Crc32Kernel> AvailableCrc32Kernels() {
  std::vector<Crc32Kernel> kernels = {Crc32Kernel::kSlicing8};
  if (CpuSupportsPclmul()) {
    kernels.push_back(Crc32Kernel::kPclmul);
  }
  return kernels;
}

Crc32Kernel ActiveCrc32Kernel() {
  static const Crc32Kernel kernel =
      simd::ActiveIsa() != simd::Isa::kScalar && CpuSupportsPclmul()
          ? Crc32Kernel::kPclmul
          : Crc32Kernel::kSlicing8;
  return kernel;
}

uint32_t Crc32UpdateWith(Crc32Kernel kernel, uint32_t crc, const void* data,
                         size_t len) {
  if (kernel == Crc32Kernel::kPclmul && !CpuSupportsPclmul()) {
    throw std::invalid_argument(
        std::string("Crc32UpdateWith: kernel not available: ") +
        Crc32KernelName(kernel));
  }
  return ~KernelFnFor(kernel)(~crc, static_cast<const uint8_t*>(data), len);
}

}  // namespace privapprox::storage
