// Tests for the randomized-response mechanism: distributional behaviour of
// the two coins, unbiasedness of the Eq 5 de-biasing, the Eq 6 accuracy-loss
// metric, and client-side sampling.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/randomized_response.h"
#include "core/sampling.h"

namespace privapprox::core {
namespace {

TEST(RandomizationParamsTest, Validation) {
  EXPECT_NO_THROW((RandomizationParams{0.5, 0.5}.Validate()));
  EXPECT_NO_THROW((RandomizationParams{1.0, 0.5}.Validate()));  // p=1 allowed
  EXPECT_THROW((RandomizationParams{0.0, 0.5}.Validate()),
               std::invalid_argument);
  EXPECT_THROW((RandomizationParams{0.5, 0.0}.Validate()),
               std::invalid_argument);
  EXPECT_THROW((RandomizationParams{0.5, 1.0}.Validate()),
               std::invalid_argument);
  EXPECT_THROW((RandomizationParams{1.2, 0.5}.Validate()),
               std::invalid_argument);
}

TEST(RandomizedResponseTest, TruthfulWhenPIsOne) {
  Xoshiro256 rng(1);
  const RandomizedResponse rr(RandomizationParams{1.0, 0.5});
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(rr.RandomizeBit(true, rng));
    EXPECT_FALSE(rr.RandomizeBit(false, rng));
  }
}

TEST(RandomizedResponseTest, YesProbabilityMatchesTheory) {
  // P[response = yes | truth = yes] = p + (1-p) q;
  // P[response = yes | truth = no ] = (1-p) q.
  Xoshiro256 rng(2);
  const RandomizationParams params{0.6, 0.3};
  const RandomizedResponse rr(params);
  const int n = 200000;
  int yes_given_yes = 0, yes_given_no = 0;
  for (int i = 0; i < n; ++i) {
    yes_given_yes += rr.RandomizeBit(true, rng) ? 1 : 0;
    yes_given_no += rr.RandomizeBit(false, rng) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(yes_given_yes) / n,
              params.p + (1 - params.p) * params.q, 0.005);
  EXPECT_NEAR(static_cast<double>(yes_given_no) / n,
              (1 - params.p) * params.q, 0.005);
}

TEST(RandomizedResponseTest, DebiasRecoversKnownCounts) {
  // Closed-form check of Eq 5: if Ry is exactly its expectation the debias
  // must return the true count exactly.
  const RandomizedResponse rr(RandomizationParams{0.7, 0.4});
  const double total = 10000.0, truthful_yes = 6000.0;
  const double expected_ry =
      truthful_yes * (0.7 + 0.3 * 0.4) + (total - truthful_yes) * (0.3 * 0.4);
  EXPECT_NEAR(rr.DebiasCount(expected_ry, total), truthful_yes, 1e-9);
}

TEST(RandomizedResponseTest, DebiasIsUnbiasedEmpirically) {
  Xoshiro256 rng(3);
  const RandomizedResponse rr(RandomizationParams{0.3, 0.6});
  const size_t total = 10000, truthful_yes = 6000;
  double sum_estimates = 0.0;
  const int trials = 100;
  for (int trial = 0; trial < trials; ++trial) {
    size_t ry = 0;
    for (size_t i = 0; i < total; ++i) {
      if (rr.RandomizeBit(i < truthful_yes, rng)) {
        ++ry;
      }
    }
    sum_estimates += rr.DebiasCount(static_cast<double>(ry),
                                    static_cast<double>(total));
  }
  // Mean of estimates within ~3 standard errors of the truth.
  const double mean = sum_estimates / trials;
  const double se = rr.DebiasStdDev(0.6, total) / std::sqrt(trials);
  EXPECT_NEAR(mean, 6000.0, 3.5 * se);
}

TEST(RandomizedResponseTest, RandomizeAnswerPreservesWidth) {
  Xoshiro256 rng(4);
  const RandomizedResponse rr(RandomizationParams{0.9, 0.6});
  BitVector truthful(11);
  truthful.Set(3, true);
  const BitVector randomized = rr.RandomizeAnswer(truthful, rng);
  EXPECT_EQ(randomized.size(), 11u);
}

// RandomizeAnswer is a byte-at-a-time kernel over RandomizeBit's draws: for
// every width (inline and heap-backed, whole and partial bytes) and every
// (p, q) shape (p = 1 draws nothing), its bits and the RNG state it leaves
// behind equal a per-bit RandomizeBit loop's.
TEST(RandomizedResponseTest, RandomizeAnswerMatchesPerBitReference) {
  const RandomizationParams shapes[] = {{1.0, 0.5}, {0.9, 0.6}, {0.5, 0.01}};
  const size_t widths[] = {1, 7, 8, 9, 11, 64, 81, 128, 129, 300};
  for (const RandomizationParams& params : shapes) {
    const RandomizedResponse rr(params);
    for (const size_t width : widths) {
      SCOPED_TRACE("p=" + std::to_string(params.p) + " width=" +
                   std::to_string(width));
      Xoshiro256 bits(width);
      BitVector truthful(width);
      for (size_t i = 0; i < width; ++i) {
        truthful.Set(i, (bits.Next() & 1) != 0);
      }
      Xoshiro256 kernel_rng(42 + width);
      Xoshiro256 reference_rng(42 + width);
      for (int round = 0; round < 4; ++round) {
        const BitVector randomized = rr.RandomizeAnswer(truthful, kernel_rng);
        BitVector reference(width);
        for (size_t i = 0; i < width; ++i) {
          reference.Set(i, rr.RandomizeBit(truthful.Get(i), reference_rng));
        }
        ASSERT_EQ(randomized, reference) << "round " << round;
      }
      // Same state: the streams continue identically.
      for (int i = 0; i < 4; ++i) {
        ASSERT_EQ(kernel_rng.Next(), reference_rng.Next());
      }
    }
  }
}

TEST(RandomizedResponseTest, DebiasHistogramBucketwise) {
  const RandomizedResponse rr(RandomizationParams{0.5, 0.5});
  Histogram randomized(std::vector<double>{600.0, 400.0});
  const Histogram debiased = rr.DebiasHistogram(randomized, 1000.0);
  // Ey = (Ry - 0.25 * 1000) / 0.5
  EXPECT_NEAR(debiased.Count(0), (600.0 - 250.0) / 0.5, 1e-9);
  EXPECT_NEAR(debiased.Count(1), (400.0 - 250.0) / 0.5, 1e-9);
}

TEST(RandomizedResponseTest, DebiasCanGoNegativeWithoutClamping) {
  // Unbiasedness requires not clamping small-count estimates.
  const RandomizedResponse rr(RandomizationParams{0.5, 0.9});
  EXPECT_LT(rr.DebiasCount(100.0, 1000.0), 0.0);
}

TEST(RandomizedResponseTest, DebiasStdDevShrinksWithHigherP) {
  const double total = 10000.0;
  const RandomizedResponse low_p(RandomizationParams{0.3, 0.6});
  const RandomizedResponse high_p(RandomizationParams{0.9, 0.6});
  EXPECT_GT(low_p.DebiasStdDev(0.6, total), high_p.DebiasStdDev(0.6, total));
}

TEST(AccuracyLossTest, Equation6) {
  EXPECT_NEAR(AccuracyLoss(100.0, 97.0), 0.03, 1e-12);
  EXPECT_NEAR(AccuracyLoss(100.0, 103.0), 0.03, 1e-12);
  EXPECT_DOUBLE_EQ(AccuracyLoss(0.0, 5.0), 0.0);
}

// ---------------------------------------------------------------- sampling

TEST(SamplingPolicyTest, RejectsBadFractions) {
  EXPECT_THROW(SamplingPolicy(0.0), std::invalid_argument);
  EXPECT_THROW(SamplingPolicy(1.5), std::invalid_argument);
  EXPECT_NO_THROW(SamplingPolicy(1.0));
}

TEST(SamplingPolicyTest, ParticipationRateMatchesFraction) {
  Xoshiro256 rng(5);
  const SamplingPolicy policy(0.6);
  int participants = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    participants += policy.ShouldParticipate(rng) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(participants) / n, 0.6, 0.01);
}

TEST(SamplingPolicyTest, FullSamplingTakesEveryone) {
  Xoshiro256 rng(6);
  const SamplingPolicy policy(1.0);
  const auto participants = policy.SampleParticipants(1000, rng);
  EXPECT_EQ(participants.size(), 1000u);
}

TEST(SamplingPolicyTest, SampleParticipantsIndicesValidAndSorted) {
  Xoshiro256 rng(7);
  const SamplingPolicy policy(0.3);
  const auto participants = policy.SampleParticipants(10000, rng);
  EXPECT_GT(participants.size(), 2500u);
  EXPECT_LT(participants.size(), 3500u);
  for (size_t i = 1; i < participants.size(); ++i) {
    EXPECT_LT(participants[i - 1], participants[i]);
    EXPECT_LT(participants[i], 10000u);
  }
}

}  // namespace
}  // namespace privapprox::core
