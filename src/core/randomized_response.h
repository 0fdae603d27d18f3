// Two-coin randomized response (paper §3.2.2, Eqs 5-8).
//
// For each answer bit: flip the first coin (heads with probability p). Heads
// -> report the truthful bit. Tails -> flip the second coin (heads with
// probability q) and report heads as "1"/tails as "0". The aggregator never
// sees a truthful answer it can rely on — privacy comes from plausible
// deniability — yet the aggregate de-biases exactly:
//
//   Ey = (Ry - (1-p) * q * N) / p                                (Eq 5)
//
// and the mechanism is eps-differentially private with
//
//   eps = ln( (p + (1-p)q) / ((1-p)q) )                          (Eq 8).

#ifndef PRIVAPPROX_CORE_RANDOMIZED_RESPONSE_H_
#define PRIVAPPROX_CORE_RANDOMIZED_RESPONSE_H_

#include <cstddef>

#include "common/bitvector.h"
#include "common/histogram.h"
#include "common/rng.h"

namespace privapprox::core {

struct RandomizationParams {
  double p = 0.9;  // probability of answering truthfully
  double q = 0.6;  // probability of a forced "yes"

  // Validates p in (0, 1], q in (0, 1); p == 1 means "no randomization"
  // (used to isolate the sampling error in Fig 4b).
  void Validate() const;
};

class RandomizedResponse {
 public:
  explicit RandomizedResponse(RandomizationParams params);

  const RandomizationParams& params() const { return params_; }

  // Randomizes a single truthful bit.
  bool RandomizeBit(bool truthful, Xoshiro256& rng) const;

  // Randomizes each bucket bit of a truthful answer independently: exactly
  // the draws RandomizeBit makes for each bit in index order (it is the
  // reference), built a byte at a time. Allocates only what a BitVector of
  // that width needs.
  BitVector RandomizeAnswer(const BitVector& truthful, Xoshiro256& rng) const;

  // Eq 5: de-biased estimate of the truthful "yes" count from `randomized_yes`
  // observed among `total` randomized answers. Can be negative for small
  // counts; the caller decides whether to clamp (the estimators do not, to
  // keep the estimate unbiased).
  double DebiasCount(double randomized_yes, double total) const;

  // Applies Eq 5 bucket-wise: `randomized` holds per-bucket randomized "yes"
  // counts out of `total` answers.
  Histogram DebiasHistogram(const Histogram& randomized, double total) const;

  // Standard deviation of the de-biased estimate of one bucket count, given
  // the (approximate) truthful yes-fraction y. Each randomized bit is
  // Bernoulli(p + (1-p)q) for truthful-yes clients and Bernoulli((1-p)q)
  // for truthful-no clients, so
  //   Var(Ey) = N * [y*piY(1-piY) + (1-y)*piN(1-piN)] / p^2,
  // which correctly vanishes at p = 1 (no randomization).
  double DebiasStdDev(double yes_fraction, double total) const;

 private:
  RandomizationParams params_;
};

// Eq 6: accuracy loss eta = |actual - estimated| / actual. Returns 0 when
// the actual count is 0 (no reference to compare against).
double AccuracyLoss(double actual, double estimated);

}  // namespace privapprox::core

#endif  // PRIVAPPROX_CORE_RANDOMIZED_RESPONSE_H_
