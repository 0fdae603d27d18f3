#include "crypto/chacha20.h"

#include <bit>
#include <cstring>

#include "crypto/chacha20_simd.h"

namespace privapprox::crypto {

void ChaCha20BlockInto(uint8_t* out, const std::array<uint8_t, 32>& key,
                       const std::array<uint8_t, 12>& nonce,
                       uint32_t counter) {
  uint32_t state[16];
  internal::BuildChaChaState(state, key, nonce, counter);
  internal::ChaCha20BlockFromState(out, state);
}

std::array<uint8_t, 64> ChaCha20Block(const std::array<uint8_t, 32>& key,
                                      const std::array<uint8_t, 12>& nonce,
                                      uint32_t counter) {
  std::array<uint8_t, 64> out;
  ChaCha20BlockInto(out.data(), key, nonce, counter);
  return out;
}

ChaCha20Rng::ChaCha20Rng(const std::array<uint8_t, 32>& key,
                         uint64_t stream_id)
    : key_(key) {
  nonce_.fill(0);
  for (int i = 0; i < 8; ++i) {
    nonce_[i] = static_cast<uint8_t>(stream_id >> (8 * i));
  }
}

ChaCha20Rng ChaCha20Rng::FromSeed(uint64_t seed, uint64_t stream_id) {
  // Expand the seed with SplitMix-style mixing into a 256-bit key.
  std::array<uint8_t, 32> key{};
  uint64_t state = seed;
  for (int w = 0; w < 4; ++w) {
    uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z = z ^ (z >> 31);
    for (int b = 0; b < 8; ++b) {
      key[8 * w + b] = static_cast<uint8_t>(z >> (8 * b));
    }
  }
  return ChaCha20Rng(key, stream_id);
}

void ChaCha20Rng::Refill() {
  ChaCha20BlockInto(block_.data(), key_, nonce_, counter_++);
  offset_ = 0;
}

uint64_t ChaCha20Rng::NextUint64() {
  // Fast path for the randomized-response coin draws in the client hot
  // loop: read the 8 bytes straight out of the staged block. Falls back to
  // FillBytes when the read would straddle the block edge (including the
  // offset_ == 64 "needs refill" state), which reproduces the exact
  // drain/refill sequence — so the stream position and output are
  // bit-identical to assembling the value from 8 single-byte reads.
  // The keystream is a little-endian byte sequence; on a big-endian host
  // the memcpy below would need a byte swap to keep streams portable.
  static_assert(std::endian::native == std::endian::little,
                "ChaCha20Rng::NextUint64 assumes little-endian layout");
  uint64_t out;
  if (offset_ + 8 <= block_.size()) {
    std::memcpy(&out, block_.data() + offset_, 8);
    offset_ += 8;
  } else {
    uint8_t bytes[8];
    FillBytes(bytes, sizeof(bytes));
    std::memcpy(&out, bytes, 8);
  }
  return out;
}

void ChaCha20Rng::FillBytes(uint8_t* out, size_t len) {
  if (len == 0) {
    return;  // `out` may be null (an empty vector's data()).
  }
  // Drain whatever the staging block still holds from an earlier call.
  if (offset_ < block_.size()) {
    const size_t take = std::min(len, block_.size() - offset_);
    std::memcpy(out, block_.data() + offset_, take);
    offset_ += take;
    out += take;
    len -= take;
  }
  // Whole blocks are generated as one multi-block run straight into the
  // destination — the SIMD engine emits 4 or 8 of them per vector step.
  const size_t whole_blocks = len / block_.size();
  if (whole_blocks > 0) {
    ChaCha20BlocksInto(out, key_, nonce_, counter_, whole_blocks);
    counter_ += static_cast<uint32_t>(whole_blocks);
    out += whole_blocks * block_.size();
    len -= whole_blocks * block_.size();
  }
  // The tail comes out of a fresh staged block so the stream position is
  // preserved for the next call.
  if (len > 0) {
    Refill();
    std::memcpy(out, block_.data(), len);
    offset_ = len;
  }
}

std::vector<uint8_t> ChaCha20Rng::Bytes(size_t len) {
  std::vector<uint8_t> out(len);
  FillBytes(out.data(), len);
  return out;
}

void ChaCha20Rng::Bytes(std::vector<uint8_t>& out, size_t len) {
  out.resize(len);
  FillBytes(out.data(), len);
}

}  // namespace privapprox::crypto
