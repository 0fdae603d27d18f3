#include "common/bitvector.h"

#include <bit>
#include <cstring>
#include <stdexcept>

#include "common/xor_bytes.h"

namespace privapprox {

BitVector::BitVector(size_t num_bits) { Init(num_bits); }

BitVector::BitVector(const BitVector& other) {
  Init(other.num_bits_);
  std::memcpy(data(), other.data(), ByteSize());
}

BitVector::BitVector(BitVector&& other) noexcept : num_bits_(other.num_bits_) {
  if (is_inline()) {
    std::memcpy(inline_, other.inline_, kInlineBytes);
  } else {
    heap_ = other.heap_;
  }
  // The moved-from vector is empty, as a moved-from std::vector is.
  other.num_bits_ = 0;
}

BitVector& BitVector::operator=(const BitVector& other) {
  if (this != &other) {
    if (ByteSize() != other.ByteSize()) {
      Release();
      Init(other.num_bits_);
    }
    num_bits_ = other.num_bits_;
    std::memcpy(data(), other.data(), ByteSize());
  }
  return *this;
}

BitVector& BitVector::operator=(BitVector&& other) noexcept {
  if (this != &other) {
    Release();
    num_bits_ = other.num_bits_;
    if (is_inline()) {
      std::memcpy(inline_, other.inline_, kInlineBytes);
    } else {
      heap_ = other.heap_;
    }
    other.num_bits_ = 0;
  }
  return *this;
}

BitVector::~BitVector() { Release(); }

void BitVector::Init(size_t num_bits) {
  num_bits_ = num_bits;
  if (is_inline()) {
    std::memset(inline_, 0, kInlineBytes);
  } else {
    heap_ = new uint8_t[ByteSize()]();
  }
}

void BitVector::Release() {
  if (!is_inline()) {
    delete[] heap_;
  }
  num_bits_ = 0;
}

BitVector BitVector::FromBytes(std::span<const uint8_t> bytes,
                               size_t num_bits) {
  if (num_bits > bytes.size() * 8) {
    throw std::invalid_argument("BitVector::FromBytes: num_bits too large");
  }
  BitVector bv(num_bits);
  if (num_bits != 0) {
    std::memcpy(bv.data(), bytes.data(), bv.ByteSize());
    bv.MaskTail();
  }
  return bv;
}

bool BitVector::Get(size_t index) const {
  if (index >= num_bits_) {
    throw std::out_of_range("BitVector::Get: index out of range");
  }
  return (data()[index / 8] >> (index % 8)) & 1u;
}

void BitVector::Set(size_t index, bool value) {
  if (index >= num_bits_) {
    throw std::out_of_range("BitVector::Set: index out of range");
  }
  const uint8_t mask = static_cast<uint8_t>(1u << (index % 8));
  if (value) {
    data()[index / 8] |= mask;
  } else {
    data()[index / 8] &= static_cast<uint8_t>(~mask);
  }
}

void BitVector::Flip(size_t index) { Set(index, !Get(index)); }

size_t BitVector::PopCount() const {
  const uint8_t* bytes = data();
  const size_t n = ByteSize();
  size_t count = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t word;
    std::memcpy(&word, bytes + i, 8);
    count += static_cast<size_t>(std::popcount(word));
  }
  for (; i < n; ++i) {
    count += static_cast<size_t>(std::popcount(bytes[i]));
  }
  return count;
}

BitVector& BitVector::operator^=(const BitVector& other) {
  if (num_bits_ != other.num_bits_) {
    throw std::invalid_argument("BitVector::operator^=: size mismatch");
  }
  XorBytesInPlace(data(), other.data(), ByteSize());
  return *this;
}

BitVector operator^(const BitVector& lhs, const BitVector& rhs) {
  if (lhs.num_bits_ != rhs.num_bits_) {
    throw std::invalid_argument("BitVector::operator^: size mismatch");
  }
  BitVector out(lhs.num_bits_);
  XorBytesInto(out.data(), lhs.data(), rhs.data(), out.ByteSize());
  return out;
}

bool BitVector::operator==(const BitVector& other) const {
  return num_bits_ == other.num_bits_ &&
         std::memcmp(data(), other.data(), ByteSize()) == 0;
}

void BitVector::Clear() { std::memset(data(), 0, ByteSize()); }

std::string BitVector::ToString() const {
  std::string out;
  out.reserve(num_bits_);
  for (size_t i = 0; i < num_bits_; ++i) {
    out.push_back(Get(i) ? '1' : '0');
  }
  return out;
}

void BitVector::MaskTail() {
  const size_t tail_bits = num_bits_ % 8;
  if (tail_bits != 0) {
    data()[ByteSize() - 1] &= static_cast<uint8_t>((1u << tail_bits) - 1);
  }
}

}  // namespace privapprox
