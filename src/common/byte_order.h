// Fixed-width little-endian loads and stores for the wire and on-disk
// formats. Every format in the tree is little-endian and the build already
// assumes a little-endian host (see ChaCha20Rng::NextUint64), so each is one
// memcpy that compiles to a single unaligned move.

#ifndef PRIVAPPROX_COMMON_BYTE_ORDER_H_
#define PRIVAPPROX_COMMON_BYTE_ORDER_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace privapprox {

static_assert(std::endian::native == std::endian::little,
              "the wire and log formats are stored with plain memcpy");

template <typename T>
T LoadLe(const uint8_t* p) {
  static_assert(std::is_unsigned_v<T>);
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

template <typename T>
void StoreLe(uint8_t* p, T value) {
  static_assert(std::is_unsigned_v<T>);
  std::memcpy(p, &value, sizeof(T));
}

}  // namespace privapprox

#endif  // PRIVAPPROX_COMMON_BYTE_ORDER_H_
