// Dynamic bit vector used for client answers A[n] and XOR one-time pads.
//
// Client answers in PrivApprox are n-bit vectors, one bit per histogram
// bucket (§2.2). The XOR-based encryption (§3.2.3) operates on these vectors
// bit-wise; the aggregator pops counts per bucket out of them.
//
// Vectors of up to 128 bits keep their bytes inline, so building,
// copying and randomizing an answer of a typical query width (the paper's
// 11-bucket histograms, or 81 buckets) never touches the heap; only wider
// vectors spill to one heap buffer.

#ifndef PRIVAPPROX_COMMON_BITVECTOR_H_
#define PRIVAPPROX_COMMON_BITVECTOR_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace privapprox {

class BitVector {
 public:
  BitVector() = default;
  // Creates a vector of `num_bits` zero bits.
  explicit BitVector(size_t num_bits);
  BitVector(const BitVector& other);
  BitVector(BitVector&& other) noexcept;
  BitVector& operator=(const BitVector& other);
  BitVector& operator=(BitVector&& other) noexcept;
  ~BitVector();

  // Builds from raw bytes; the vector has bytes.size()*8 bits unless
  // `num_bits` (<= bytes.size()*8) trims it. Bytes past the last bit are
  // ignored and pad bits are cleared.
  static BitVector FromBytes(std::span<const uint8_t> bytes, size_t num_bits);

  size_t size() const { return num_bits_; }
  bool empty() const { return num_bits_ == 0; }

  bool Get(size_t index) const;
  void Set(size_t index, bool value);
  void Flip(size_t index);

  // Number of set bits.
  size_t PopCount() const;

  // In-place XOR with `other`. Both vectors must have the same size.
  BitVector& operator^=(const BitVector& other);
  // Three-operand bulk XOR (XorBytesInto): writes lhs ^ rhs straight into
  // the result's bytes, no copy-then-xor pass.
  friend BitVector operator^(const BitVector& lhs, const BitVector& rhs);

  bool operator==(const BitVector& other) const;
  bool operator!=(const BitVector& other) const { return !(*this == other); }

  // Sets all bits to zero.
  void Clear();

  // Raw little-endian byte serialization (ceil(num_bits/8) bytes; trailing
  // pad bits are zero). The span is invalidated by any mutation of the
  // vector's size or by its destruction.
  std::span<const uint8_t> bytes() const { return {data(), ByteSize()}; }
  // Writable bytes, for kernels that build a vector a byte at a time. The
  // writer must leave the pad bits past size() zero.
  std::span<uint8_t> mutable_bytes() { return {data(), ByteSize()}; }
  size_t ByteSize() const { return (num_bits_ + 7) / 8; }

  // "0101..." debug rendering, most significant index last.
  std::string ToString() const;

 private:
  static constexpr size_t kInlineBytes = 16;  // up to 128 bits inline

  bool is_inline() const { return ByteSize() <= kInlineBytes; }
  const uint8_t* data() const { return is_inline() ? inline_ : heap_; }
  uint8_t* data() { return is_inline() ? inline_ : heap_; }
  // Sets the size to `num_bits` with zeroed storage; the vector must hold
  // no heap buffer.
  void Init(size_t num_bits);
  void Release();
  void MaskTail();

  size_t num_bits_ = 0;
  union {
    uint8_t inline_[kInlineBytes] = {};
    uint8_t* heap_;
  };
};

}  // namespace privapprox

#endif  // PRIVAPPROX_COMMON_BITVECTOR_H_
