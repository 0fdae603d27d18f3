// Kernel entry points shared by crc32.cc (the portable kernel and the
// dispatcher) and crc32_pclmul.cc (the only storage/ file compiled with
// -mpclmul -msse4.1). Both take and return the raw CRC register; the
// public entry points apply the standard pre/post inversion. Not for use
// outside those TUs.

#ifndef PRIVAPPROX_STORAGE_CRC32_INTERNAL_H_
#define PRIVAPPROX_STORAGE_CRC32_INTERNAL_H_

#include <cstddef>
#include <cstdint>

namespace privapprox::storage::detail {

uint32_t Crc32Slicing8(uint32_t reg, const uint8_t* data, size_t len);

#if defined(PRIVAPPROX_HAVE_PCLMUL_TU)
uint32_t Crc32Pclmul(uint32_t reg, const uint8_t* data, size_t len);
#endif

}  // namespace privapprox::storage::detail

#endif  // PRIVAPPROX_STORAGE_CRC32_INTERNAL_H_
