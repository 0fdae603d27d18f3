// Tests for the storage layer: CRC32 vectors and kernel identity, and the
// segmented PartitionLog driven through Append/AppendBatch/Replay —
// round-trips, segment rotation, reopening, torn-tail recovery, corruption
// detection, the bytes of one batch of historical answers, and a durable
// historical topic read back by HistoricalAnalytics.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <atomic>

#include <unistd.h>

#include "aggregator/historical.h"
#include "broker/topic.h"
#include "common/simd_dispatch.h"
#include "crypto/message.h"
#include "storage/crc32.h"
#include "storage/partition_log.h"

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

// A `len`-byte payload whose every byte is `fill`.
std::vector<uint8_t> Payload(size_t len, uint8_t fill) {
  return std::vector<uint8_t>(len, fill);
}

// Appends `payload` to `log` as a one-record batch keyed by its timestamp.
void AppendAt(PartitionLog& log, int64_t timestamp_ms,
              const std::vector<uint8_t>& payload) {
  log.Append(static_cast<uint64_t>(timestamp_ms), timestamp_ms, payload);
}

// Records of `log` stamped in [from_ms, to_ms).
size_t CountInRange(const PartitionLog& log, int64_t from_ms, int64_t to_ms) {
  size_t count = 0;
  log.Replay([&](uint64_t, uint64_t, int64_t timestamp_ms,
                 std::span<const uint8_t>) {
    count += timestamp_ms >= from_ms && timestamp_ms < to_ms ? 1 : 0;
  });
  return count;
}

size_t CountAll(const PartitionLog& log) {
  return CountInRange(log, INT64_MIN, INT64_MAX);
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
    EXPECT_EQ(log.Append(static_cast<uint64_t>(ts) * 3, ts,
                         Payload(1 + ts % 11, static_cast<uint8_t>(ts))),
              static_cast<uint64_t>(ts));
  }
  EXPECT_EQ(log.end_offset(), 100u);
  uint64_t next = 0;
  log.Replay([&](uint64_t offset, uint64_t key, int64_t timestamp_ms,
                 std::span<const uint8_t> payload) {
    EXPECT_EQ(offset, next++);
    EXPECT_EQ(timestamp_ms, static_cast<int64_t>(offset));
    EXPECT_EQ(key, offset * 3);
    EXPECT_EQ(std::vector<uint8_t>(payload.begin(), payload.end()),
              Payload(1 + offset % 11, static_cast<uint8_t>(offset)));
  });
  EXPECT_EQ(next, 100u);
}

TEST(SegmentLogTest, TimeRangeFilter) {
  TempDir dir;
  PartitionLog log(dir.path(), PartitionLogOptions{});
  for (int64_t ts = 0; ts < 50; ++ts) {
    AppendAt(log, ts * 10, Payload(5, 1));
  }
  EXPECT_EQ(CountInRange(log, 100, 200), 10u);
  EXPECT_EQ(CountInRange(log, 1000, 2000), 0u);
}

TEST(SegmentLogTest, RotatesSegments) {
  TempDir dir;
  PartitionLogOptions options;
  options.max_segment_bytes = 512;  // tiny: force rotation
  PartitionLog log(dir.path(), options);
  for (int64_t ts = 0; ts < 200; ++ts) {
    AppendAt(log, ts, Payload(12, 2));
  }
  EXPECT_GT(log.num_segments(), 3u);
  EXPECT_EQ(CountAll(log), 200u);
}

TEST(SegmentLogTest, ReopenResumesAppending) {
  TempDir dir;
  {
    PartitionLog log(dir.path(), PartitionLogOptions{});
    for (int64_t ts = 0; ts < 30; ++ts) {
      AppendAt(log, ts, Payload(5, 3));
    }
  }
  {
    PartitionLog log(dir.path(), PartitionLogOptions{});
    EXPECT_EQ(log.end_offset(), 30u);
    for (int64_t ts = 30; ts < 60; ++ts) {
      AppendAt(log, ts, Payload(5, 3));
    }
    EXPECT_EQ(CountAll(log), 60u);
  }
}

TEST(SegmentLogTest, RecoversFromTornTail) {
  TempDir dir;
  fs::path segment;
  {
    PartitionLog log(dir.path(), PartitionLogOptions{});
    for (int64_t ts = 0; ts < 10; ++ts) {
      AppendAt(log, ts, Payload(6, 4));
    }
    segment = dir.path() / "seg-00000000000000000000.log";
  }
  // Simulate a crash mid-append: chop the last 5 bytes.
  const auto size = fs::file_size(segment);
  fs::resize_file(segment, size - 5);
  PartitionLog log(dir.path(), PartitionLogOptions{});
  EXPECT_EQ(log.end_offset(), 9u);  // last record truncated away
  // And the log is writable again.
  AppendAt(log, 100, Payload(6, 4));
  EXPECT_EQ(CountAll(log), 10u);
}

TEST(SegmentLogTest, DetectsCorruptionInTornTailByCrc) {
  TempDir dir;
  fs::path segment;
  {
    PartitionLog log(dir.path(), PartitionLogOptions{});
    for (int64_t ts = 0; ts < 5; ++ts) {
      AppendAt(log, ts, Payload(6, 5));
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
      AppendAt(log, ts, Payload(12, 6));
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
  EXPECT_EQ(CountAll(log), 0u);
}

// One stored answer as the historical tee produces it: keyed by its QID,
// the payload the message in AnswerMessage wire form.
std::vector<uint8_t> AnswerRecord(uint64_t query_id, size_t bits,
                                  size_t set_bit) {
  BitVector answer(bits);
  answer.Set(set_bit, true);
  return crypto::AnswerMessage{query_id, answer}.Serialize();
}

TEST(SegmentLogTest, OneDrainOfAnswersIsOneBatch) {
  // A durable historical topic writes one drain's answers of a shard as one
  // batch. Their key is their payload's QID prefix, their width and
  // timestamp are one: one frame and header, the width once, then each
  // payload alone — 26 B per batch and 14 B per 11-bucket answer.
  TempDir dir;
  const std::vector<std::vector<uint8_t>> answers = {
      AnswerRecord(7, 11, 0), AnswerRecord(7, 11, 9), AnswerRecord(7, 11, 10)};
  {
    PartitionLog log(dir.path(), PartitionLogOptions{});
    log.AppendBatch(answers.size(), [&](size_t i) {
      return BatchRecord{7, 5000, answers[i]};
    });
    EXPECT_EQ(log.end_offset(), 3u);
  }
  const std::vector<uint8_t> batch = {
      0xB2, 0x03,                              // magic; fixed width, key
                                               // in payload
      3,    0,    0, 0,                        // count
      0x88, 0x13, 0, 0, 0, 0, 0, 0,            // base ts 5000
      14,   0,    0, 0,                        // width: header + 2 bytes
      7, 0, 0, 0, 0, 0, 0, 0, 11, 0, 0, 0, 0x01, 0x00,  // payload block
      7, 0, 0, 0, 0, 0, 0, 0, 11, 0, 0, 0, 0x00, 0x02,
      7, 0, 0, 0, 0, 0, 0, 0, 11, 0, 0, 0, 0x00, 0x04};
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
  size_t i = 0;
  log.Replay([&](uint64_t, uint64_t key, int64_t timestamp_ms,
                 std::span<const uint8_t> payload) {
    ASSERT_LT(i, answers.size());
    EXPECT_EQ(key, 7u);
    EXPECT_EQ(timestamp_ms, 5000);
    EXPECT_EQ(std::vector<uint8_t>(payload.begin(), payload.end()),
              answers[i++]);
  });
  EXPECT_EQ(i, answers.size());
}

TEST(SegmentLogTest, BatchAnalyticsOverLoadedStore) {
  // End-to-end: a durable historical topic, recovered from its log by a
  // fresh topic, read by HistoricalAnalytics.
  TempDir dir;
  const broker::TopicDurability durability{dir.path(), {}};
  {
    broker::Topic store("historical", 1, durability);
    for (int i = 0; i < 100; ++i) {
      const std::vector<uint8_t> payload = AnswerRecord(1, 2, i < 70 ? 0 : 1);
      const broker::ProduceView record{1, payload, i};
      store.AppendViews({&record, 1});
    }
  }
  const broker::Topic store("historical", 1, durability);
  core::ExecutionParams params;
  params.randomization = {1.0, 0.5};
  const aggregator::HistoricalAnalytics analytics(store, 1, 2, params, 100);
  Xoshiro256 rng(1);
  const core::QueryResult result =
      analytics.Run(0, 100, aggregator::BatchQueryBudget{1.0}, rng);
  EXPECT_EQ(result.participants, 100u);
  EXPECT_NEAR(result.buckets[0].estimate.value, 70.0, 1e-9);
  EXPECT_NEAR(result.buckets[1].estimate.value, 30.0, 1e-9);
}

}  // namespace
}  // namespace privapprox::storage
