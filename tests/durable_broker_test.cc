// Tests for the durable-spill layer above the partition log: Topic recovery
// into in-memory slabs, Broker-wide RecoverTopics, watermark retention from
// the broker's side, double-open protection, and the end-to-end guarantee
// that a durability-enabled PrivApproxSystem produces bit-identical results
// to a memory-only one.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <unistd.h>

#include "broker/broker.h"
#include "broker/topic.h"
#include "core/query.h"
#include "deploy/result_wire.h"
#include "localdb/database.h"
#include "storage/partition_log.h"
#include "system/system.h"

namespace privapprox {
namespace {

namespace fs = std::filesystem;

using broker::Broker;
using broker::BrokerDurability;
using broker::ProduceView;
using broker::RecordView;
using broker::Topic;
using broker::TopicDurability;

class TempDir {
 public:
  TempDir() {
    static std::atomic<int> counter{0};
    std::random_device rd;
    path_ = fs::temp_directory_path() /
            ("privapprox_durable_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++) + "_" + std::to_string(rd()));
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

std::vector<uint8_t> Payload(uint64_t seed, size_t len) {
  std::vector<uint8_t> payload(len);
  for (size_t i = 0; i < len; ++i) {
    payload[i] = static_cast<uint8_t>((seed * 131 + i) & 0xFF);
  }
  return payload;
}

// Every retained record of every partition, in partition order; the views
// live as long as the topic.
std::vector<RecordView> DumpTopic(const Topic& topic) {
  std::vector<RecordView> all;
  for (size_t p = 0; p < topic.num_partitions(); ++p) {
    // Durable recovery can leave a non-zero base after retention trims;
    // the read starts at the first offset the topic still holds.
    topic.ReadViews(p, /*offset=*/0, SIZE_MAX, all);
  }
  return all;
}

// One line per record (offset, key, timestamp, payload bytes), so one
// incarnation of a topic can be compared with the next.
std::string Describe(const std::vector<RecordView>& records) {
  std::string out;
  for (const RecordView& r : records) {
    out += std::to_string(r.offset) + " " + std::to_string(r.key) + " " +
           std::to_string(r.timestamp_ms) + " ";
    out.append(reinterpret_cast<const char*>(r.payload), r.payload_len);
    out += '\n';
  }
  return out;
}

TEST(DurableTopicTest, OffByDefault) {
  Topic topic("plain", 4);
  EXPECT_FALSE(topic.durable());
  const auto stats = topic.durable_stats();
  EXPECT_EQ(stats.segments, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  // Watermark/sync are no-ops, not errors.
  EXPECT_EQ(topic.AdvanceWatermark(0, 100), 0u);
  topic.SyncDurable();
}

TEST(DurableTopicTest, ReopenRecoversIdenticalContents) {
  TempDir dir;
  const TopicDurability durability{dir.path(), {}};
  std::string written;
  {
    Topic topic("answers", 4, durability);
    ASSERT_TRUE(topic.durable());
    for (uint64_t key = 0; key < 40; ++key) {
      topic.AppendViews(std::array{ProduceView{
          key, Payload(key, 20 + key % 7), static_cast<int64_t>(1000 + key)}});
    }
    ASSERT_EQ(DumpTopic(topic).size(), 40u);
    written = Describe(DumpTopic(topic));
    EXPECT_GT(topic.durable_stats().bytes, 0u);
  }

  Topic topic("answers", 4, durability);
  EXPECT_EQ(Describe(DumpTopic(topic)), written);
  EXPECT_EQ(topic.durable_stats().recovered_records, 40u);

  // The recovered topic keeps accepting appends.
  topic.AppendViews(std::array{ProduceView{99, Payload(99, 8), 0}});
  EXPECT_EQ(DumpTopic(topic).size(), 41u);
}

// Each append call spills one record batch per partition it touches, so
// fsync=always pays one fsync per partition run, not one per record, and
// the batches replay record for record.
TEST(DurableTopicTest, AppendViewsSpillsOneBatchPerPartitionRun) {
  TempDir dir;
  TopicDurability durability{dir.path(), {}};
  durability.log.fsync = storage::FsyncPolicy::kAlways;
  std::vector<std::vector<uint8_t>> payloads;
  for (uint64_t key = 0; key < 60; ++key) {
    payloads.push_back(Payload(key, 22));
  }
  std::vector<ProduceView> views;
  for (uint64_t key = 0; key < 60; ++key) {
    views.push_back(
        ProduceView{key, payloads[key], static_cast<int64_t>(key % 3)});
  }
  std::string written;
  {
    Topic topic("lane", 3, durability);
    topic.AppendViews(views);
    EXPECT_EQ(topic.durable_stats().fsyncs, 3u);
    topic.AppendViews(std::span(views).first(1));
    EXPECT_EQ(topic.durable_stats().fsyncs, 4u);
    written = Describe(DumpTopic(topic));
  }
  Topic topic("lane", 3, durability);
  EXPECT_EQ(DumpTopic(topic).size(), 61u);
  EXPECT_EQ(Describe(DumpTopic(topic)), written);
}

TEST(DurableTopicTest, EndOffsetContinuesAcrossReopen) {
  TempDir dir;
  const TopicDurability durability{dir.path(), {}};
  std::vector<uint64_t> ends;
  {
    Topic topic("t", 3, durability);
    for (uint64_t key = 0; key < 30; ++key) {
      topic.AppendViews(std::array{ProduceView{key, Payload(key, 16), 0}});
    }
    for (size_t p = 0; p < 3; ++p) {
      ends.push_back(topic.EndOffset(p));
    }
  }
  Topic topic("t", 3, durability);
  for (size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(topic.EndOffset(p), ends[p]) << "partition " << p;
  }
}

TEST(DurableTopicTest, DoubleOpenOfSameDirectoryThrows) {
  TempDir dir;
  const TopicDurability durability{dir.path(), {}};
  Topic topic("t", 2, durability);
  EXPECT_THROW(Topic("t", 2, durability), storage::SegmentLogError);
}

TEST(DurableTopicTest, WatermarkTrimsDiskKeepsMemory) {
  TempDir dir;
  TopicDurability durability{dir.path(), {}};
  durability.log.max_segment_bytes = 256;  // force rotation quickly
  const size_t kOnePartition = 1;

  uint64_t end = 0;
  {
    Topic topic("t", kOnePartition, durability);
    for (uint64_t key = 0; key < 30; ++key) {
      topic.AppendViews(std::array{ProduceView{key, Payload(key, 40), 0}});
    }
    end = topic.EndOffset(0);
    ASSERT_GT(topic.durable_stats().segments, 2u);

    // Consumers are fully caught up: trimming deletes every sealed segment
    // but the in-memory records stay readable (memory is Release's).
    EXPECT_GT(topic.AdvanceWatermark(0, end), 0u);
    EXPECT_EQ(topic.durable_stats().segments, 1u);
    EXPECT_EQ(DumpTopic(topic).size(), 30u);

    // A watermark past the end clamps rather than corrupting state.
    EXPECT_EQ(topic.AdvanceWatermark(0, end + 1000), 0u);
  }

  // Reopen: only the untrimmed tail comes back, at the right offsets.
  Topic topic("t", kOnePartition, durability);
  EXPECT_EQ(topic.EndOffset(0), end);
  const std::vector<RecordView> tail = DumpTopic(topic);
  ASSERT_FALSE(tail.empty());
  EXPECT_LT(tail.size(), 30u);
  EXPECT_EQ(tail.back().offset, end - 1);
  for (const RecordView& r : tail) {
    const std::vector<uint8_t> expected = Payload(r.key, 40);
    EXPECT_TRUE(std::equal(r.bytes().begin(), r.bytes().end(),
                           expected.begin(), expected.end()));
  }
}

TEST(DurableTopicTest, ReopenAfterReleaseReplaysEveryRecord) {
  // Release trims memory only: the log keeps every record, so a restarted
  // topic serves the released records again, at their original offsets.
  TempDir dir;
  const TopicDurability durability{dir.path(), {}};
  std::string written;
  {
    Topic topic("t", 3, durability);
    for (uint64_t key = 0; key < 60; ++key) {
      topic.AppendViews(std::array{
          ProduceView{key, Payload(key, 12), static_cast<int64_t>(key)}});
    }
    written = Describe(DumpTopic(topic));
    for (size_t p = 0; p < topic.num_partitions(); ++p) {
      topic.Release(p, topic.EndOffset(p));
    }
    EXPECT_TRUE(DumpTopic(topic).empty());
    EXPECT_EQ(topic.slab_stats().retained_records, 0u);
  }
  Topic topic("t", 3, durability);
  EXPECT_EQ(DumpTopic(topic).size(), 60u);
  EXPECT_EQ(Describe(DumpTopic(topic)), written);
}

// ----------------------------------------------------------------- broker

TEST(DurableBrokerTest, EnableAfterTopicExistsThrows) {
  TempDir dir;
  Broker broker;
  broker.CreateTopic("t", 1);
  EXPECT_THROW(broker.EnableDurability({dir.path(), {}}), std::logic_error);
}

TEST(DurableBrokerTest, RecoverTopicsWithoutDurabilityThrows) {
  Broker broker;
  EXPECT_THROW(broker.RecoverTopics(), std::logic_error);
}

TEST(DurableBrokerTest, RecoverTopicsRebuildsNamesAndPartitions) {
  TempDir dir;
  {
    Broker broker;
    broker.EnableDurability({dir.path(), {}});
    EXPECT_TRUE(broker.durable());
    // Dotted names matter: lane topics look like proxy0.q7.in.
    Topic& a = broker.CreateTopic("proxy0.q7.in", 4);
    Topic& b = broker.CreateTopic("proxy0.q7.out", 2);
    Topic& c = broker.CreateTopic("announce", 1);
    for (uint64_t key = 0; key < 24; ++key) {
      a.AppendViews(std::array{ProduceView{key, Payload(key, 12), 0}});
      b.AppendViews(std::array{ProduceView{key, Payload(key + 100, 12), 0}});
    }
    c.AppendViews(std::array{ProduceView{0, Payload(7, 64), 0}});
  }

  Broker broker;
  broker.EnableDurability({dir.path(), {}});
  const std::vector<std::string> recovered = broker.RecoverTopics();
  EXPECT_EQ(recovered, (std::vector<std::string>{"announce", "proxy0.q7.in",
                                                 "proxy0.q7.out"}));
  EXPECT_EQ(broker.GetTopic("proxy0.q7.in").num_partitions(), 4u);
  EXPECT_EQ(broker.GetTopic("proxy0.q7.out").num_partitions(), 2u);
  EXPECT_EQ(broker.GetTopic("announce").num_partitions(), 1u);
  EXPECT_EQ(DumpTopic(broker.GetTopic("proxy0.q7.in")).size(), 24u);
  EXPECT_EQ(DumpTopic(broker.GetTopic("announce")).size(), 1u);
  EXPECT_EQ(broker.durable_stats().recovered_records, 49u);

  // Recovering again is a no-op: the topics already exist.
  EXPECT_TRUE(broker.RecoverTopics().empty());
}

TEST(DurableBrokerTest, RecoverOnEmptyDirIsEmpty) {
  TempDir dir;
  Broker broker;
  broker.EnableDurability({dir.path(), {}});
  EXPECT_TRUE(broker.RecoverTopics().empty());
}

TEST(DurableBrokerTest, TopicNamesCannotEscapeDataDir) {
  // A durable topic's name becomes a directory under data_dir, and a peer
  // can name topics over the wire: nothing may resolve outside data_dir.
  TempDir dir;
  const fs::path data_dir = dir.path() / "data";
  Broker broker;
  broker.EnableDurability({data_dir, {}});
  const std::vector<std::string> hostile = {
      "", ".", "..", "../escaped", "a/b", (dir.path() / "absolute").string(),
      std::string("nul\0byte", 8)};
  for (const std::string& name : hostile) {
    EXPECT_THROW(broker.EnsureTopic(name, 1), std::invalid_argument) << name;
    EXPECT_THROW(broker.CreateTopic(name, 1), std::invalid_argument) << name;
  }
  EXPECT_TRUE(broker.TopicNames().empty());
  EXPECT_FALSE(fs::exists(dir.path() / "escaped"));
  EXPECT_FALSE(fs::exists(dir.path() / "absolute"));
  // The names the system itself uses still work.
  broker.EnsureTopic("proxy0.q7.in", 2);
  broker.EnsureTopic("proxy1.query.out", 1);
  EXPECT_TRUE(fs::is_directory(data_dir / "proxy0.q7.in"));
}

// ----------------------------------------------------------------- system

core::Query SpeedQuery() {
  return core::QueryBuilder()
      .WithId(1)
      .WithSql("SELECT speed FROM vehicle")
      .WithAnswerFormat(core::AnswerFormat::UniformNumeric(0, 100, 10, true))
      .WithFrequencyMs(1000)
      .WithWindowMs(1000)
      .WithSlideMs(1000)
      .Build();
}

core::ExecutionParams Params() {
  core::ExecutionParams params;
  params.sampling_fraction = 0.9;
  params.randomization = {0.85, 0.5};
  return params;
}

void FillDatabase(localdb::Database& db, size_t client_index) {
  db.CreateTable("vehicle", {"speed"});
  db.GetTable("vehicle").Insert(
      500,
      {localdb::Value(static_cast<double>((client_index * 7) % 100))});
}

std::vector<uint8_t> RunSystem(const system::SystemConfig& config) {
  system::PrivApproxSystem sys(config);
  for (size_t i = 0; i < config.num_clients; ++i) {
    FillDatabase(sys.client(i).database(), i);
  }
  sys.SubmitQuery(SpeedQuery(), Params());
  for (size_t e = 0; e < 3; ++e) {
    sys.RunEpoch(static_cast<int64_t>(1000 * (e + 1)));
  }
  sys.Flush();
  return deploy::SerializeResults(sys.TakeResults());
}

// Durability OFF vs ON must be bit-identical: the spill is write-through,
// never on the read path, so every sampled/randomized bit matches.
TEST(DurableSystemTest, DurableResultsMatchMemoryOnly) {
  system::SystemConfig memory_config;
  memory_config.num_clients = 60;
  memory_config.num_proxies = 2;
  memory_config.seed = 42;
  const std::vector<uint8_t> reference = RunSystem(memory_config);
  ASSERT_FALSE(reference.empty());

  TempDir dir;
  system::SystemConfig durable_config = memory_config;
  durable_config.broker.data_dir = dir.path().string();
  const std::vector<uint8_t> durable = RunSystem(durable_config);
  EXPECT_EQ(durable, reference);

  // And the spill actually happened.
  EXPECT_FALSE(fs::is_empty(dir.path()));
}

TEST(DurableSystemTest, DurableSystemHonorsFsyncPolicy) {
  TempDir dir;
  system::SystemConfig config;
  config.num_clients = 20;
  config.num_proxies = 2;
  config.seed = 7;
  config.broker.data_dir = dir.path().string();
  config.broker.log.fsync = storage::FsyncPolicy::kAlways;
  const std::vector<uint8_t> wire = RunSystem(config);
  EXPECT_FALSE(wire.empty());
}

}  // namespace
}  // namespace privapprox
