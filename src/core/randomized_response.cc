#include "core/randomized_response.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

namespace privapprox::core {

void RandomizationParams::Validate() const {
  if (!(p > 0.0 && p <= 1.0)) {
    throw std::invalid_argument("RandomizationParams: p must be in (0, 1]");
  }
  if (!(q > 0.0 && q < 1.0)) {
    throw std::invalid_argument("RandomizationParams: q must be in (0, 1)");
  }
}

RandomizedResponse::RandomizedResponse(RandomizationParams params)
    : params_(params) {
  params_.Validate();
}

bool RandomizedResponse::RandomizeBit(bool truthful, Xoshiro256& rng) const {
  if (rng.NextBernoulli(params_.p)) {
    return truthful;  // first coin heads: answer truthfully
  }
  return rng.NextBernoulli(params_.q);  // second coin decides
}

BitVector RandomizedResponse::RandomizeAnswer(const BitVector& truthful,
                                              Xoshiro256& rng) const {
  // RandomizeBit over every bit, a byte at a time: the same draws in the
  // same order. With p = 1 the first coin always comes up heads without a
  // draw, so the answer is the truthful one; otherwise each bit draws the
  // first coin and, on tails only, the second (q is in (0, 1), so that coin
  // always draws).
  if (params_.p >= 1.0) {
    return truthful;
  }
  const double p = params_.p;
  const double q = params_.q;
  BitVector randomized(truthful.size());
  const std::span<const uint8_t> in = truthful.bytes();
  const std::span<uint8_t> out = randomized.mutable_bytes();
  size_t remaining = truthful.size();
  for (size_t i = 0; i < out.size(); ++i) {
    const size_t bits = std::min<size_t>(remaining, 8);
    remaining -= bits;
    uint8_t byte = 0;
    for (size_t b = 0; b < bits; ++b) {
      const bool bit = rng.NextDouble() < p ? ((in[i] >> b) & 1u) != 0
                                            : rng.NextDouble() < q;
      byte |= static_cast<uint8_t>(static_cast<unsigned>(bit) << b);
    }
    out[i] = byte;
  }
  return randomized;
}

double RandomizedResponse::DebiasCount(double randomized_yes,
                                       double total) const {
  // Eq 5.
  return (randomized_yes - (1.0 - params_.p) * params_.q * total) / params_.p;
}

Histogram RandomizedResponse::DebiasHistogram(const Histogram& randomized,
                                              double total) const {
  Histogram debiased(randomized.num_buckets());
  for (size_t i = 0; i < randomized.num_buckets(); ++i) {
    debiased.SetCount(i, DebiasCount(randomized.Count(i), total));
  }
  return debiased;
}

double RandomizedResponse::DebiasStdDev(double yes_fraction,
                                        double total) const {
  // Each randomized bit is Bernoulli with parameter pi_yes = p + (1-p)q for
  // truthful-yes clients and pi_no = (1-p)q for truthful-no clients, so
  //   Var(Ry) = N * [ y*pi_yes(1-pi_yes) + (1-y)*pi_no(1-pi_no) ]
  // (NOT the mixture-mean Bernoulli variance, which would wrongly report
  // noise even at p = 1, where responses are deterministic).
  const double pi_yes = params_.p + (1.0 - params_.p) * params_.q;
  const double pi_no = (1.0 - params_.p) * params_.q;
  const double per_answer = yes_fraction * pi_yes * (1.0 - pi_yes) +
                            (1.0 - yes_fraction) * pi_no * (1.0 - pi_no);
  const double variance = total * per_answer / (params_.p * params_.p);
  return std::sqrt(std::max(0.0, variance));
}

double AccuracyLoss(double actual, double estimated) {
  if (actual == 0.0) {
    return 0.0;
  }
  return std::fabs(actual - estimated) / std::fabs(actual);
}

}  // namespace privapprox::core
