// Tests for the durable historical answer log — answer records
// (AppendAnswer / LoadAnswers) on a segmented PartitionLog: CRC32 vectors,
// round-trips, segment rotation, time-range loads, torn-tail recovery, and
// corruption detection.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <atomic>

#include <unistd.h>

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
