#include "common/rng.h"

#include <cmath>

namespace privapprox {

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Xoshiro256::Xoshiro256(uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : state_) {
    s = sm.Next();
  }
  // All-zero state is the one invalid state; SplitMix64 cannot produce four
  // consecutive zeros in practice, but guard anyway.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
}

uint64_t Xoshiro256::NextBounded(uint64_t bound) {
  if (bound == 0) {
    return 0;
  }
  // Lemire's nearly-divisionless method.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t t = -bound % bound;
    while (l < t) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Xoshiro256::NextInRange(int64_t lo, int64_t hi) {
  if (lo >= hi) {
    return lo;
  }
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBounded(span));
}

double Xoshiro256::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box-Muller; avoid log(0) by shifting u1 away from zero.
  double u1 = NextDouble();
  double u2 = NextDouble();
  if (u1 < 1e-300) {
    u1 = 1e-300;
  }
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Xoshiro256::NextExponential(double lambda) {
  double u = NextDouble();
  if (u >= 1.0) {
    u = std::nextafter(1.0, 0.0);
  }
  return -std::log1p(-u) / lambda;
}

double Xoshiro256::NextLogNormal(double mu, double sigma) {
  return std::exp(mu + sigma * NextGaussian());
}

void Xoshiro256::Jump() {
  static constexpr uint64_t kJump[] = {0x180EC6D33CFD0ABAULL,
                                       0xD5A61266F0C9392CULL,
                                       0xA9582618E03FC9AAULL,
                                       0x39ABDC4529B1661CULL};
  uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (uint64_t jump : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (1ULL << b)) {
        s0 ^= state_[0];
        s1 ^= state_[1];
        s2 ^= state_[2];
        s3 ^= state_[3];
      }
      Next();
    }
  }
  state_ = {s0, s1, s2, s3};
}

Xoshiro256 Xoshiro256::Split() {
  Xoshiro256 child = *this;
  Jump();
  child.has_cached_gaussian_ = false;
  return child;
}

void FillRandomBytes(Xoshiro256& rng, std::vector<uint8_t>& out) {
  size_t i = 0;
  while (i + 8 <= out.size()) {
    uint64_t word = rng.Next();
    for (int b = 0; b < 8; ++b) {
      out[i++] = static_cast<uint8_t>(word >> (8 * b));
    }
  }
  if (i < out.size()) {
    uint64_t word = rng.Next();
    for (int b = 0; i < out.size(); ++b) {
      out[i++] = static_cast<uint8_t>(word >> (8 * b));
    }
  }
}

}  // namespace privapprox
