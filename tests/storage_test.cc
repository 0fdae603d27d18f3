// Tests for the durable historical answer log — answer records
// (AppendAnswers / LoadAnswers) on a segmented PartitionLog: CRC32 vectors
// and kernel identity, round-trips, segment rotation, time-range loads,
// torn-tail recovery, and corruption detection.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <atomic>

#include <unistd.h>

#include "common/simd_dispatch.h"
#include "storage/crc32.h"
#include "aggregator/historical.h"
#include "storage/partition_log.h"
#include "storage/response_store.h"

namespace privapprox::storage {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    // ctest runs each TEST in its own process concurrently: the directory
    // name must be unique across processes, not just within one.
    static std::atomic<int> counter{0};
    std::random_device rd;
    path_ = fs::temp_directory_path() /
            ("privapprox_log_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++) + "_" + std::to_string(rd()));
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

BitVector MakeAnswer(size_t bits, size_t set_bit) {
  BitVector answer(bits);
  answer.Set(set_bit, true);
  return answer;
}

// Appends one answer to `log` as a one-record batch.
void AppendAnswer(PartitionLog& log, int64_t timestamp_ms,
                  const BitVector& answer) {
  const std::pair<int64_t, BitVector> one(timestamp_ms, answer);
  AppendAnswers(log, std::span(&one, 1));
}

// ------------------------------------------------------------------ CRC32

TEST(Crc32Test, KnownVectors) {
  // Standard check value: CRC32("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0x00000000u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const char data[] = "privacy-preserving stream analytics";
  const uint32_t whole = Crc32(data, sizeof(data) - 1);
  uint32_t incremental = Crc32(data, 10);
  incremental = Crc32Update(incremental, data + 10, sizeof(data) - 1 - 10);
  EXPECT_EQ(incremental, whole);
}

TEST(Crc32Test, DetectsBitFlips) {
  uint8_t buffer[64];
  for (size_t i = 0; i < sizeof(buffer); ++i) {
    buffer[i] = static_cast<uint8_t>(i * 7);
  }
  const uint32_t original = Crc32(buffer, sizeof(buffer));
  buffer[13] ^= 0x20;
  EXPECT_NE(Crc32(buffer, sizeof(buffer)), original);
}

// The bytewise reference every kernel is pinned against: the textbook
// reflected CRC-32, one table lookup per byte.
uint32_t ReferenceCrc32Update(uint32_t crc, const uint8_t* data, size_t len) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? (c >> 1) ^ 0xEDB88320u : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  crc = ~crc;
  for (size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ data[i]) & 0xFF];
  }
  return ~crc;
}

std::vector<uint8_t> RandomBytes(size_t len, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<uint8_t> out(len);
  for (uint8_t& byte : out) {
    byte = static_cast<uint8_t>(rng());
  }
  return out;
}

TEST(Crc32KernelTest, KnownVectorsOfAtLeast64BytesReachTheFoldPath) {
  // Values from zlib's crc32; every input is long enough to be folded.
  std::vector<uint8_t> ramp(256);
  for (size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<uint8_t>(i);
  }
  std::string fox;
  for (int i = 0; i < 3; ++i) {
    fox += "The quick brown fox jumps over the lazy dog";
  }
  std::vector<uint8_t> pattern(4099);
  for (size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  const std::vector<uint8_t> zeros(64, 0x00);
  const std::vector<uint8_t> ones(1000, 0xFF);
  for (const Crc32Kernel kernel : AvailableCrc32Kernels()) {
    SCOPED_TRACE(Crc32KernelName(kernel));
    EXPECT_EQ(Crc32UpdateWith(kernel, 0, zeros.data(), zeros.size()),
              0x758D6336u);
    EXPECT_EQ(Crc32UpdateWith(kernel, 0, ramp.data(), ramp.size()),
              0x29058C73u);
    EXPECT_EQ(Crc32UpdateWith(kernel, 0, ones.data(), ones.size()),
              0xE0533230u);
    EXPECT_EQ(Crc32UpdateWith(kernel, 0, fox.data(), fox.size()),
              0xD99691F3u);
    EXPECT_EQ(Crc32UpdateWith(kernel, 0, pattern.data(), pattern.size()),
              0xDFADE85Au);
  }
  EXPECT_EQ(Crc32(pattern.data(), pattern.size()), 0xDFADE85Au);
}

TEST(Crc32KernelTest, EveryKernelMatchesTheBytewiseReference) {
  constexpr size_t kMaxLen = 1100;
  const std::vector<uint8_t> buffer = RandomBytes(kMaxLen + 15, 1);
  std::mt19937 seeds(2);
  for (const Crc32Kernel kernel : AvailableCrc32Kernels()) {
    for (size_t offset = 0; offset < 16; ++offset) {
      for (size_t len = 0; len <= kMaxLen; ++len) {
        const uint32_t seed = seeds();
        const uint8_t* data = buffer.data() + offset;
        ASSERT_EQ(Crc32UpdateWith(kernel, seed, data, len),
                  ReferenceCrc32Update(seed, data, len))
            << Crc32KernelName(kernel) << " offset " << offset << " len "
            << len;
      }
    }
  }
}

TEST(Crc32KernelTest, LargeBuffersMatchTheBytewiseReference) {
  std::mt19937 seeds(3);
  for (const size_t len : {size_t{64} << 10, size_t{1} << 20}) {
    const std::vector<uint8_t> buffer = RandomBytes(len + 15, len);
    for (size_t offset = 0; offset < 16; ++offset) {
      const uint32_t seed = seeds();
      const uint8_t* data = buffer.data() + offset;
      const uint32_t want = ReferenceCrc32Update(seed, data, len);
      for (const Crc32Kernel kernel : AvailableCrc32Kernels()) {
        ASSERT_EQ(Crc32UpdateWith(kernel, seed, data, len), want)
            << Crc32KernelName(kernel) << " offset " << offset << " len "
            << len;
      }
    }
  }
}

TEST(Crc32KernelTest, IncrementalSplitsAtEvery16ByteBoundaryMatch) {
  constexpr size_t kLen = 1100;
  const std::vector<uint8_t> buffer = RandomBytes(kLen + 15, 4);
  std::mt19937 seeds(5);
  for (const Crc32Kernel kernel : AvailableCrc32Kernels()) {
    for (size_t offset = 0; offset < 16; ++offset) {
      const uint8_t* data = buffer.data() + offset;
      const uint32_t seed = seeds();
      const uint32_t want = ReferenceCrc32Update(seed, data, kLen);
      for (size_t split = 0; split <= kLen; split += 16) {
        const uint32_t head = Crc32UpdateWith(kernel, seed, data, split);
        ASSERT_EQ(Crc32UpdateWith(kernel, head, data + split, kLen - split),
                  want)
            << Crc32KernelName(kernel) << " offset " << offset << " split "
            << split;
      }
    }
  }
}

TEST(Crc32KernelTest, ActiveKernelFollowsTheSimdPolicy) {
  const std::vector<Crc32Kernel> kernels = AvailableCrc32Kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels.front(), Crc32Kernel::kSlicing8);
  const Crc32Kernel expected = simd::ActiveIsa() == simd::Isa::kScalar
                                   ? Crc32Kernel::kSlicing8
                                   : kernels.back();
  EXPECT_EQ(ActiveCrc32Kernel(), expected);
}

TEST(Crc32KernelTest, SimdOffSelectsThePortableKernel) {
  // The kernel is picked once per process, so the override is checked in a
  // freshly executed child that sets it before anything dispatches.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        setenv("PRIVAPPROX_SIMD", "off", 1);
        std::exit(ActiveCrc32Kernel() == Crc32Kernel::kSlicing8 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

// ------------------------------------------------------------- segment log

TEST(SegmentLogTest, AppendAndLoadRoundTrip) {
  TempDir dir;
  PartitionLog log(dir.path(), PartitionLogOptions{});
  for (int64_t ts = 0; ts < 100; ++ts) {
    AppendAnswer(log, ts, MakeAnswer(11, static_cast<size_t>(ts % 11)));
  }
  EXPECT_EQ(log.end_offset(), 100u);
  const ResponseStore store = LoadAnswers(log, INT64_MIN, INT64_MAX);
  ASSERT_EQ(store.size(), 100u);
  const auto range = store.Range(0, 100);
  EXPECT_TRUE(range[42]->answer.Get(42 % 11));
  EXPECT_EQ(range[42]->answer.size(), 11u);
}

TEST(SegmentLogTest, TimeRangeFilter) {
  TempDir dir;
  PartitionLog log(dir.path(), PartitionLogOptions{});
  for (int64_t ts = 0; ts < 50; ++ts) {
    AppendAnswer(log, ts * 10, MakeAnswer(4, 0));
  }
  EXPECT_EQ(LoadAnswers(log, 100, 200).size(), 10u);
  EXPECT_EQ(LoadAnswers(log, 1000, 2000).size(), 0u);
}

TEST(SegmentLogTest, RotatesSegments) {
  TempDir dir;
  PartitionLogOptions options;
  options.max_segment_bytes = 512;  // tiny: force rotation
  PartitionLog log(dir.path(), options);
  for (int64_t ts = 0; ts < 200; ++ts) {
    AppendAnswer(log, ts, MakeAnswer(64, 1));
  }
  EXPECT_GT(log.num_segments(), 3u);
  EXPECT_EQ(LoadAnswers(log, INT64_MIN, INT64_MAX).size(), 200u);
}

TEST(SegmentLogTest, ReopenResumesAppending) {
  TempDir dir;
  {
    PartitionLog log(dir.path(), PartitionLogOptions{});
    for (int64_t ts = 0; ts < 30; ++ts) {
      AppendAnswer(log, ts, MakeAnswer(8, 2));
    }
  }
  {
    PartitionLog log(dir.path(), PartitionLogOptions{});
    EXPECT_EQ(log.end_offset(), 30u);
    for (int64_t ts = 30; ts < 60; ++ts) {
      AppendAnswer(log, ts, MakeAnswer(8, 2));
    }
    EXPECT_EQ(LoadAnswers(log, INT64_MIN, INT64_MAX).size(), 60u);
  }
}

TEST(SegmentLogTest, RecoversFromTornTail) {
  TempDir dir;
  fs::path segment;
  {
    PartitionLog log(dir.path(), PartitionLogOptions{});
    for (int64_t ts = 0; ts < 10; ++ts) {
      AppendAnswer(log, ts, MakeAnswer(16, 3));
    }
    segment = dir.path() / "seg-00000000000000000000.log";
  }
  // Simulate a crash mid-append: chop the last 5 bytes.
  const auto size = fs::file_size(segment);
  fs::resize_file(segment, size - 5);
  PartitionLog log(dir.path(), PartitionLogOptions{});
  EXPECT_EQ(log.end_offset(), 9u);  // last record truncated away
  // And the log is writable again.
  AppendAnswer(log, 100, MakeAnswer(16, 3));
  EXPECT_EQ(LoadAnswers(log, INT64_MIN, INT64_MAX).size(), 10u);
}

TEST(SegmentLogTest, DetectsCorruptionInTornTailByCrc) {
  TempDir dir;
  fs::path segment;
  {
    PartitionLog log(dir.path(), PartitionLogOptions{});
    for (int64_t ts = 0; ts < 5; ++ts) {
      AppendAnswer(log, ts, MakeAnswer(16, 1));
    }
    segment = dir.path() / "seg-00000000000000000000.log";
  }
  // Flip a byte inside the LAST record's body.
  {
    std::fstream f(segment,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-3, std::ios::end);
    char byte;
    f.seekg(-3, std::ios::end);
    f.get(byte);
    f.seekp(-3, std::ios::end);
    byte = static_cast<char>(byte ^ 0xFF);
    f.put(byte);
  }
  PartitionLog log(dir.path(), PartitionLogOptions{});
  EXPECT_EQ(log.end_offset(), 4u);  // corrupt tail record dropped
}

TEST(SegmentLogTest, RejectsCorruptionInSealedSegment) {
  TempDir dir;
  {
    PartitionLogOptions options;
    options.max_segment_bytes = 256;
    PartitionLog log(dir.path(), options);
    for (int64_t ts = 0; ts < 100; ++ts) {
      AppendAnswer(log, ts, MakeAnswer(64, 5));
    }
    ASSERT_GT(log.num_segments(), 1u);
  }
  // Corrupt the FIRST (sealed) segment: unrecoverable.
  {
    std::fstream f(dir.path() / "seg-00000000000000000000.log",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(12);
    f.put('\xFF');
    f.put('\xFF');
  }
  EXPECT_THROW((PartitionLog{dir.path(), PartitionLogOptions{}}),
               SegmentLogError);
}

TEST(SegmentLogTest, EmptyDirectoryIsValid) {
  TempDir dir;
  PartitionLog log(dir.path(), PartitionLogOptions{});
  EXPECT_EQ(log.end_offset(), 0u);
  EXPECT_EQ(LoadAnswers(log, INT64_MIN, INT64_MAX).size(), 0u);
}

TEST(SegmentLogTest, OneDrainOfAnswersIsOneBatch) {
  // The aggregator hands the historical store one drain's answers at once.
  // Equal widths and one epoch's timestamp: one frame and header, the width
  // once, then an all-zero key and a payload per answer — 26 B per batch and
  // 14 B per 11-bucket answer.
  TempDir dir;
  const std::vector<std::pair<int64_t, BitVector>> answers = {
      {5000, MakeAnswer(11, 0)},
      {5000, MakeAnswer(11, 9)},
      {5000, MakeAnswer(11, 10)}};
  {
    PartitionLog log(dir.path(), PartitionLogOptions{});
    AppendAnswers(log, answers);
    EXPECT_EQ(log.end_offset(), 3u);
  }
  const std::vector<uint8_t> batch = {
      0xB2, 0x01,                        // magic; fixed width
      3,    0,    0, 0,                  // count
      0x88, 0x13, 0, 0, 0, 0, 0, 0,      // base ts 5000
      6,    0,    0, 0,                  // width: u32 bit count + 2 bytes
      0,    0,    0, 0, 0, 0, 0, 0,      // keys
      0,    0,    0, 0, 0, 0, 0, 0,
      0,    0,    0, 0, 0, 0, 0, 0,
      11,   0,    0, 0, 0x01, 0x00,      // payload block
      11,   0,    0, 0, 0x00, 0x02,
      11,   0,    0, 0, 0x00, 0x04};
  const uint32_t crc = Crc32(batch.data(), batch.size());
  std::vector<uint8_t> want = {static_cast<uint8_t>(batch.size()), 0, 0, 0};
  for (int i = 0; i < 4; ++i) {
    want.push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
  want.insert(want.end(), batch.begin(), batch.end());
  EXPECT_EQ(want.size(), 26u + 3 * 14);
  std::ifstream in(dir.path() / "seg-00000000000000000000.log",
                   std::ios::binary);
  const std::vector<uint8_t> got((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
  EXPECT_EQ(got, want);

  PartitionLog log(dir.path(), PartitionLogOptions{});
  const ResponseStore store = LoadAnswers(log, INT64_MIN, INT64_MAX);
  const auto loaded = store.Range(INT64_MIN, INT64_MAX);
  ASSERT_EQ(loaded.size(), answers.size());
  for (size_t i = 0; i < answers.size(); ++i) {
    EXPECT_EQ(loaded[i]->timestamp_ms, answers[i].first);
    EXPECT_EQ(loaded[i]->answer, answers[i].second);
  }
}

TEST(SegmentLogTest, BatchAnalyticsOverLoadedStore) {
  // End-to-end: durable log -> LoadRange -> HistoricalAnalytics.
  TempDir dir;
  PartitionLog log(dir.path(), PartitionLogOptions{});
  BitVector yes(2), no(2);
  yes.Set(0, true);
  no.Set(1, true);
  for (int i = 0; i < 70; ++i) {
    AppendAnswer(log, i, yes);
  }
  for (int i = 70; i < 100; ++i) {
    AppendAnswer(log, i, no);
  }
  const ResponseStore store = LoadAnswers(log, 0, 100);
  core::ExecutionParams params;
  params.randomization = {1.0, 0.5};
  const aggregator::HistoricalAnalytics analytics(store, params, 100);
  Xoshiro256 rng(1);
  const core::QueryResult result =
      analytics.Run(0, 100, aggregator::BatchQueryBudget{1.0}, rng, 2);
  EXPECT_NEAR(result.buckets[0].estimate.value, 70.0, 1e-9);
  EXPECT_NEAR(result.buckets[1].estimate.value, 30.0, 1e-9);
}

}  // namespace
}  // namespace privapprox::storage
