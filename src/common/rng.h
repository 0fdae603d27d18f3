// Deterministic pseudo-random number generation.
//
// PrivApprox draws randomness in three places: the client-side sampling coin,
// the two randomized-response coins, and the XOR one-time-pad key material.
// The first two only need statistical quality and reproducibility (so
// experiments are repeatable); they use xoshiro256**. Key material must be
// cryptographically strong and is produced by crypto::ChaCha20Rng instead.

#ifndef PRIVAPPROX_COMMON_RNG_H_
#define PRIVAPPROX_COMMON_RNG_H_

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

namespace privapprox {

// SplitMix64: used to expand a single 64-bit seed into a full xoshiro state.
// Passes through all 2^64 states; recommended seeding procedure by the
// xoshiro authors.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next();

 private:
  uint64_t state_;
};

// xoshiro256**: fast, high-quality, 256-bit state general-purpose PRNG.
// Satisfies the C++ UniformRandomBitGenerator concept so it can be used with
// <random> distributions as well.
class Xoshiro256 {
 public:
  using result_type = uint64_t;

  // Seeds the 256-bit state from a 64-bit seed via SplitMix64.
  explicit Xoshiro256(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return Next(); }

  // Next, NextDouble and NextBernoulli are defined inline below: they are
  // the per-bit coin draws of randomized response.
  uint64_t Next();

  // Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble();

  // Bernoulli trial: true with probability `p` (clamped to [0, 1]).
  bool NextBernoulli(double p);

  // Uniform integer in [0, bound) without modulo bias (Lemire's method).
  uint64_t NextBounded(uint64_t bound);

  // Uniform integer in [lo, hi] inclusive.
  int64_t NextInRange(int64_t lo, int64_t hi);

  // Standard normal variate (Box-Muller).
  double NextGaussian();

  // Exponential variate with rate lambda.
  double NextExponential(double lambda);

  // Log-normal variate with the given parameters of the underlying normal.
  double NextLogNormal(double mu, double sigma);

  // Jump function: advances the state by 2^128 steps, for creating
  // non-overlapping independent substreams (one per simulated client).
  void Jump();

  // Returns a new generator whose stream is 2^128 steps ahead; this
  // generator is also advanced. Use to hand out per-client substreams.
  Xoshiro256 Split();

 private:
  std::array<uint64_t, 4> state_;
  // Cached second Box-Muller variate.
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

inline uint64_t Xoshiro256::Next() {
  const uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = std::rotl(state_[3], 45);
  return result;
}

inline double Xoshiro256::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

inline bool Xoshiro256::NextBernoulli(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

// Fills `out` with random bytes from `rng` (not cryptographically strong;
// for crypto key material use crypto::ChaCha20Rng).
void FillRandomBytes(Xoshiro256& rng, std::vector<uint8_t>& out);

}  // namespace privapprox

#endif  // PRIVAPPROX_COMMON_RNG_H_
