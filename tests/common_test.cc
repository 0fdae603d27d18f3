// Unit tests for the common substrate: RNG, bit vectors, histograms, the
// thread pool, and SIMD dispatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/bitvector.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/simd_dispatch.h"
#include "common/thread_pool.h"
#include "common/xor_bytes.h"

namespace privapprox {
namespace {

// ---------------------------------------------------------------- Xoshiro256

TEST(Xoshiro256Test, DeterministicForSameSeed) {
  Xoshiro256 a(123);
  Xoshiro256 b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Xoshiro256Test, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(Xoshiro256Test, NextDoubleInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Xoshiro256Test, NextDoubleMeanIsHalf) {
  Xoshiro256 rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextDouble();
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Xoshiro256Test, BernoulliMatchesProbability) {
  Xoshiro256 rng(13);
  const double p = 0.3;
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBernoulli(p)) {
      ++hits;
    }
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.01);
}

TEST(Xoshiro256Test, BernoulliEdgeCases) {
  Xoshiro256 rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
    EXPECT_FALSE(rng.NextBernoulli(-0.5));
    EXPECT_TRUE(rng.NextBernoulli(1.5));
  }
}

TEST(Xoshiro256Test, NextBoundedIsInRange) {
  Xoshiro256 rng(19);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
  EXPECT_EQ(rng.NextBounded(0), 0u);
  EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(Xoshiro256Test, NextBoundedIsRoughlyUniform) {
  Xoshiro256 rng(23);
  constexpr uint64_t kBuckets = 10;
  std::array<int, kBuckets> counts{};
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    counts[rng.NextBounded(kBuckets)]++;
  }
  for (int count : counts) {
    EXPECT_NEAR(static_cast<double>(count), n / 10.0, n * 0.01);
  }
}

TEST(Xoshiro256Test, NextInRangeInclusive) {
  Xoshiro256 rng(29);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t x = rng.NextInRange(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(rng.NextInRange(5, 5), 5);
  EXPECT_EQ(rng.NextInRange(5, 4), 5);  // degenerate range clamps to lo
}

TEST(Xoshiro256Test, GaussianMoments) {
  Xoshiro256 rng(31);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Xoshiro256Test, ExponentialMean) {
  Xoshiro256 rng(37);
  const double lambda = 2.0;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(lambda);
  }
  EXPECT_NEAR(sum / n, 1.0 / lambda, 0.01);
}

TEST(Xoshiro256Test, SplitProducesIndependentStreams) {
  Xoshiro256 parent(41);
  Xoshiro256 child = parent.Split();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (parent.Next() == child.Next()) {
      ++equal;
    }
  }
  EXPECT_EQ(equal, 0);
}

TEST(FillRandomBytesTest, FillsAllLengths) {
  Xoshiro256 rng(43);
  for (size_t len : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 100u}) {
    std::vector<uint8_t> buffer(len, 0);
    FillRandomBytes(rng, buffer);
    if (len >= 16) {
      // Not all zero with overwhelming probability.
      bool any_nonzero = false;
      for (uint8_t b : buffer) {
        any_nonzero |= (b != 0);
      }
      EXPECT_TRUE(any_nonzero);
    }
  }
}

// ----------------------------------------------------------------- BitVector

TEST(BitVectorTest, StartsAllZero) {
  BitVector bv(100);
  EXPECT_EQ(bv.size(), 100u);
  EXPECT_EQ(bv.PopCount(), 0u);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(bv.Get(i));
  }
}

TEST(BitVectorTest, SetAndGet) {
  BitVector bv(12);
  bv.Set(0, true);
  bv.Set(7, true);
  bv.Set(8, true);
  bv.Set(11, true);
  EXPECT_TRUE(bv.Get(0));
  EXPECT_TRUE(bv.Get(7));
  EXPECT_TRUE(bv.Get(8));
  EXPECT_TRUE(bv.Get(11));
  EXPECT_FALSE(bv.Get(1));
  EXPECT_EQ(bv.PopCount(), 4u);
  bv.Set(7, false);
  EXPECT_FALSE(bv.Get(7));
  EXPECT_EQ(bv.PopCount(), 3u);
}

TEST(BitVectorTest, FlipTogglesBit) {
  BitVector bv(5);
  bv.Flip(2);
  EXPECT_TRUE(bv.Get(2));
  bv.Flip(2);
  EXPECT_FALSE(bv.Get(2));
}

TEST(BitVectorTest, OutOfRangeThrows) {
  BitVector bv(8);
  EXPECT_THROW(bv.Get(8), std::out_of_range);
  EXPECT_THROW(bv.Set(8, true), std::out_of_range);
}

TEST(BitVectorTest, XorIsInvolutive) {
  Xoshiro256 rng(47);
  BitVector a(77), b(77);
  for (size_t i = 0; i < 77; ++i) {
    a.Set(i, rng.NextBernoulli(0.5));
    b.Set(i, rng.NextBernoulli(0.5));
  }
  const BitVector original = a;
  a ^= b;
  a ^= b;
  EXPECT_EQ(a, original);
}

TEST(BitVectorTest, XorSizeMismatchThrows) {
  BitVector a(8), b(9);
  EXPECT_THROW(a ^= b, std::invalid_argument);
}

TEST(BitVectorTest, FromBytesRoundTrip) {
  std::vector<uint8_t> bytes = {0xFF, 0x01};
  const BitVector bv = BitVector::FromBytes(bytes, 9);
  EXPECT_EQ(bv.size(), 9u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(bv.Get(i));
  }
  EXPECT_TRUE(bv.Get(8));
  EXPECT_EQ(bv.PopCount(), 9u);
}

TEST(BitVectorTest, FromBytesMasksTailBits) {
  // Bits beyond num_bits must be cleared so equality is well-defined.
  const BitVector a = BitVector::FromBytes(std::vector<uint8_t>{0xFF}, 4);
  BitVector b(4);
  for (size_t i = 0; i < 4; ++i) {
    b.Set(i, true);
  }
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.PopCount(), 4u);
}

TEST(BitVectorTest, FromBytesTooFewBytesThrows) {
  EXPECT_THROW(BitVector::FromBytes(std::vector<uint8_t>{0xFF}, 9),
               std::invalid_argument);
}

TEST(BitVectorTest, ToStringRendersBits) {
  BitVector bv(4);
  bv.Set(1, true);
  EXPECT_EQ(bv.ToString(), "0100");
}

TEST(BitVectorTest, ClearZeroesEverything) {
  BitVector bv(20);
  bv.Set(3, true);
  bv.Set(19, true);
  bv.Clear();
  EXPECT_EQ(bv.PopCount(), 0u);
}

// ----------------------------------------------------------------- Histogram

TEST(HistogramTest, AddAndTotal) {
  Histogram hist(3);
  hist.Add(0);
  hist.Add(1, 2.5);
  hist.Add(1);
  EXPECT_DOUBLE_EQ(hist.Count(0), 1.0);
  EXPECT_DOUBLE_EQ(hist.Count(1), 3.5);
  EXPECT_DOUBLE_EQ(hist.Count(2), 0.0);
  EXPECT_DOUBLE_EQ(hist.Total(), 4.5);
}

TEST(HistogramTest, MergeAddsCounts) {
  Histogram a(2), b(2);
  a.Add(0);
  b.Add(0);
  b.Add(1, 3.0);
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.Count(0), 2.0);
  EXPECT_DOUBLE_EQ(a.Count(1), 3.0);
}

TEST(HistogramTest, MergeMismatchThrows) {
  Histogram a(2), b(3);
  EXPECT_THROW(a.Merge(b), std::invalid_argument);
}

TEST(HistogramTest, FractionsNormalize) {
  Histogram hist(4);
  hist.Add(0, 1.0);
  hist.Add(2, 3.0);
  const auto fractions = hist.Fractions();
  EXPECT_DOUBLE_EQ(fractions[0], 0.25);
  EXPECT_DOUBLE_EQ(fractions[1], 0.0);
  EXPECT_DOUBLE_EQ(fractions[2], 0.75);
}

TEST(HistogramTest, FractionsOfEmptyAreZero) {
  Histogram hist(3);
  for (double f : hist.Fractions()) {
    EXPECT_DOUBLE_EQ(f, 0.0);
  }
}

TEST(HistogramTest, MeanRelativeErrorSkipsZeroBuckets) {
  Histogram exact(std::vector<double>{100.0, 0.0, 50.0});
  Histogram estimate(std::vector<double>{90.0, 5.0, 55.0});
  // |90-100|/100 = 0.1, bucket 1 skipped, |55-50|/50 = 0.1 -> mean 0.1.
  EXPECT_NEAR(estimate.MeanRelativeError(exact), 0.1, 1e-12);
}

TEST(HistogramTest, OutOfRangeThrows) {
  Histogram hist(2);
  EXPECT_THROW(hist.Add(2), std::out_of_range);
  EXPECT_THROW(hist.Count(2), std::out_of_range);
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { counter++; }));
  }
  for (auto& future : futures) {
    future.get();
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  pool.ParallelFor(1000, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      touched[i]++;
    }
  });
  for (const auto& t : touched) {
    EXPECT_EQ(t.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForEmptyIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.ParallelFor(10, [&](size_t begin, size_t end) {
    counter += static_cast<int>(end - begin);
  });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, ParallelForCountSmallerThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> touched(3);
  pool.ParallelFor(3, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      touched[i]++;
    }
  });
  for (const auto& t : touched) {
    EXPECT_EQ(t.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(4);
  std::atomic<int> visited{0};
  EXPECT_THROW(pool.ParallelFor(100,
                                [&](size_t begin, size_t end) {
                                  visited += static_cast<int>(end - begin);
                                  if (begin == 0) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  // Every chunk ran to completion before the rethrow — ParallelFor must not
  // return while tasks still reference the caller's lambda.
  EXPECT_EQ(visited.load(), 100);
  // The pool stays usable after a failed ParallelFor.
  std::atomic<int> counter{0};
  pool.ParallelFor(10, [&](size_t begin, size_t end) {
    counter += static_cast<int>(end - begin);
  });
  EXPECT_EQ(counter.load(), 10);
}

// ------------------------------------------------------------ SIMD dispatch

TEST(SimdDispatchTest, IsaNameParseRoundTrip) {
  for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kSse2,
                              simd::Isa::kAvx2, simd::Isa::kNeon}) {
    const auto parsed = simd::ParseIsaName(simd::IsaName(isa));
    ASSERT_TRUE(parsed.has_value()) << simd::IsaName(isa);
    EXPECT_EQ(*parsed, isa);
  }
  // "scalar" is accepted as an alias for the "off" tier.
  ASSERT_TRUE(simd::ParseIsaName("scalar").has_value());
  EXPECT_EQ(*simd::ParseIsaName("scalar"), simd::Isa::kScalar);
  EXPECT_FALSE(simd::ParseIsaName("avx512").has_value());
  EXPECT_FALSE(simd::ParseIsaName("").has_value());
  EXPECT_FALSE(simd::ParseIsaName(nullptr).has_value());
}

TEST(SimdDispatchTest, ActiveIsaIsAvailableAndStable) {
  const auto isas = simd::AvailableIsas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), simd::Isa::kScalar);
  for (const simd::Isa isa : isas) {
    EXPECT_TRUE(simd::IsaAvailable(isa)) << simd::IsaName(isa);
  }
  const simd::Isa first = simd::ActiveIsa();
  EXPECT_TRUE(std::find(isas.begin(), isas.end(), first) != isas.end());
  // The decision is made once and cached.
  EXPECT_EQ(simd::ActiveIsa(), first);
}

// ----------------------------------------------------------------- XorBytes

std::vector<uint8_t> PatternBytes(size_t len, uint8_t salt) {
  std::vector<uint8_t> out(len);
  for (size_t i = 0; i < len; ++i) {
    out[i] = static_cast<uint8_t>(i * 131 + salt);
  }
  return out;
}

TEST(XorBytesTest, InPlaceMatchesReferenceAcrossLengthsAndAlignments) {
  // Lengths straddle the 64-byte vector threshold, the 16/32-byte vector
  // widths, and odd tails; the offset shifts both operands off natural
  // alignment so the unaligned load/store paths are the ones exercised.
  const std::vector<size_t> lengths = {0,  1,  7,   8,   9,   15,  16,  17,
                                       31, 32, 33,  63,  64,  65,  96,  127,
                                       128, 129, 255, 256, 1000, 4097};
  for (const size_t len : lengths) {
    for (const size_t offset : {0u, 1u, 3u}) {
      std::vector<uint8_t> dst_buf = PatternBytes(len + offset, 5);
      std::vector<uint8_t> src_buf = PatternBytes(len + offset, 91);
      std::vector<uint8_t> expected(len);
      for (size_t i = 0; i < len; ++i) {
        expected[i] =
            static_cast<uint8_t>(dst_buf[offset + i] ^ src_buf[offset + i]);
      }
      std::vector<uint8_t> dispatched = dst_buf;
      XorBytesInPlace(dispatched.data() + offset, src_buf.data() + offset,
                      len);
      EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                             dispatched.begin() + offset))
          << "dispatched len=" << len << " offset=" << offset;
      for (const simd::Isa isa : simd::AvailableIsas()) {
        std::vector<uint8_t> forced = dst_buf;
        XorBytesInPlaceWith(isa, forced.data() + offset,
                            src_buf.data() + offset, len);
        EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                               forced.begin() + offset))
            << simd::IsaName(isa) << " len=" << len << " offset=" << offset;
      }
    }
  }
}

TEST(XorBytesTest, IntoMatchesReferenceAndSupportsAliasedDst) {
  const std::vector<size_t> lengths = {0, 1, 15, 16, 31, 32, 33,
                                       63, 64, 65, 200, 1024};
  for (const size_t len : lengths) {
    const std::vector<uint8_t> a = PatternBytes(len, 17);
    const std::vector<uint8_t> b = PatternBytes(len, 201);
    std::vector<uint8_t> expected(len);
    for (size_t i = 0; i < len; ++i) {
      expected[i] = static_cast<uint8_t>(a[i] ^ b[i]);
    }
    std::vector<uint8_t> out(len, 0xCC);
    XorBytesInto(out.data(), a.data(), b.data(), len);
    EXPECT_EQ(out, expected) << "dispatched len=" << len;
    // dst == a aliasing is part of the contract (MidJoiner reuses buffers).
    std::vector<uint8_t> aliased = a;
    XorBytesInto(aliased.data(), aliased.data(), b.data(), len);
    EXPECT_EQ(aliased, expected) << "aliased len=" << len;
    for (const simd::Isa isa : simd::AvailableIsas()) {
      std::vector<uint8_t> forced(len, 0xCC);
      XorBytesIntoWith(isa, forced.data(), a.data(), b.data(), len);
      EXPECT_EQ(forced, expected) << simd::IsaName(isa) << " len=" << len;
    }
  }
}

TEST(XorBytesTest, ForcingUnavailableIsaThrows) {
  const auto isas = simd::AvailableIsas();
  for (const simd::Isa isa : {simd::Isa::kSse2, simd::Isa::kAvx2,
                              simd::Isa::kNeon}) {
    if (std::find(isas.begin(), isas.end(), isa) != isas.end()) {
      continue;
    }
    uint8_t buf[8] = {0};
    uint8_t src[8] = {0};
    EXPECT_THROW(XorBytesInPlaceWith(isa, buf, src, sizeof(buf)),
                 std::invalid_argument)
        << simd::IsaName(isa);
    EXPECT_THROW(XorBytesIntoWith(isa, buf, buf, src, sizeof(buf)),
                 std::invalid_argument)
        << simd::IsaName(isa);
  }
}

}  // namespace
}  // namespace privapprox
