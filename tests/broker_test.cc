// Tests for the pub/sub broker substrate: topics, partitions, offsets,
// consumers (transport::BusConsumer over an InProcessBus), metrics, and
// concurrent producers.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <random>
#include <thread>

#include <unistd.h>

#include "broker/broker.h"
#include "common/byte_order.h"
#include "transport/inproc_bus.h"

namespace privapprox::broker {
namespace {

std::vector<uint8_t> Payload(std::initializer_list<uint8_t> bytes) {
  return std::vector<uint8_t>(bytes);
}

// Every record a partition retains, from `offset` on.
std::vector<RecordView> ReadAll(const Topic& topic, size_t p,
                                uint64_t offset = 0) {
  std::vector<RecordView> out;
  topic.ReadViews(p, offset, SIZE_MAX, out);
  return out;
}

bool SameBytes(const RecordView& a, const RecordView& b) {
  return std::equal(a.bytes().begin(), a.bytes().end(), b.bytes().begin(),
                    b.bytes().end());
}

TEST(TopicTest, AppendAssignsSequentialOffsets) {
  Topic topic("t", 1);
  topic.AppendViews(std::array{ProduceView{1, Payload({1}), 0}});
  topic.AppendViews(std::array{ProduceView{2, Payload({2}), 0}});
  EXPECT_EQ(topic.EndOffset(0), 2u);
  const std::vector<RecordView> records = ReadAll(topic, 0);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].offset, 0u);
  EXPECT_EQ(records[1].offset, 1u);
  EXPECT_EQ(records[1].key, 2u);
}

TEST(TopicTest, PartitionAssignmentIsStableAndInRange) {
  for (uint64_t key = 0; key < 100; ++key) {
    const size_t p1 = PartitionForKey(key, 4);
    const size_t p2 = PartitionForKey(key, 4);
    EXPECT_EQ(p1, p2);
    EXPECT_LT(p1, 4u);
  }
  EXPECT_EQ(PartitionForKey(123, 0), 0u);  // degenerate: clamps to 1
}

TEST(TopicTest, PartitionsSpreadKeys) {
  std::array<int, 4> counts{};
  for (uint64_t key = 0; key < 4000; ++key) {
    counts[PartitionForKey(key, 4)]++;
  }
  for (int count : counts) {
    EXPECT_GT(count, 700);
    EXPECT_LT(count, 1300);
  }
}

TEST(TopicTest, ReadRespectsOffsetAndLimit) {
  Topic topic("t", 1);
  for (int i = 0; i < 10; ++i) {
    topic.AppendViews(
        std::array{ProduceView{0, Payload({static_cast<uint8_t>(i)}), i}});
  }
  std::vector<RecordView> records;
  topic.ReadViews(0, 4, 3, records);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].payload[0], 4);
  EXPECT_EQ(records[0].timestamp_ms, 4);
  EXPECT_EQ(records[2].offset, 6u);
  EXPECT_TRUE(ReadAll(topic, 0, 10).empty());
}

// MessageBus::Produce's contract: one AppendViews call leaves each
// partition exactly as appending its records one view at a time does —
// offsets, keys, timestamps, bytes and counters — for lane-like runs and
// records that break them alike; an empty span is a no-op.
TEST(TopicTest, AppendViewsBatchMatchesOneViewAtATime) {
  Topic one_by_one("one", 4);
  Topic batched("batched", 4);
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<ProduceView> views;
  for (uint64_t i = 0; i < 300; ++i) {
    const uint64_t key = i * 7919;
    if (i % 5 == 0) {  // keyed apart from its payload
      payloads.push_back(Payload({static_cast<uint8_t>(i), 0x42}));
    } else {  // a lane share: MID-prefixed, fixed width
      payloads.emplace_back(22, static_cast<uint8_t>(i));
      StoreLe<uint64_t>(payloads.back().data(), key);
    }
  }
  for (uint64_t i = 0; i < 300; ++i) {
    views.push_back(ProduceView{i * 7919, payloads[i],
                                static_cast<int64_t>(i / 100)});
    one_by_one.AppendViews(std::span(views).last(1));
  }
  batched.AppendViews(views);
  batched.AppendViews({});
  for (size_t p = 0; p < 4; ++p) {
    const std::vector<RecordView> expected = ReadAll(one_by_one, p);
    const std::vector<RecordView> actual = ReadAll(batched, p);
    ASSERT_EQ(actual.size(), expected.size());
    EXPECT_EQ(batched.EndOffset(p), one_by_one.EndOffset(p));
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].offset, expected[i].offset);
      EXPECT_EQ(actual[i].key, expected[i].key);
      EXPECT_EQ(actual[i].timestamp_ms, expected[i].timestamp_ms);
      EXPECT_TRUE(SameBytes(actual[i], expected[i])) << "offset " << i;
    }
  }
  EXPECT_EQ(batched.metrics().records_in, 300u);
  EXPECT_EQ(batched.metrics().records_in, one_by_one.metrics().records_in);
  EXPECT_EQ(batched.metrics().bytes_in, one_by_one.metrics().bytes_in);
  EXPECT_EQ(batched.slab_stats().index_runs,
            one_by_one.slab_stats().index_runs);

  Topic empty("empty", 2);
  empty.AppendViews({});
  EXPECT_EQ(empty.metrics().records_in, 0u);
  EXPECT_EQ(empty.EndOffset(0), 0u);
  EXPECT_EQ(empty.EndOffset(1), 0u);
  EXPECT_EQ(empty.slab_stats().slabs, 0u);
}

TEST(BrokerTest, EnsureTopicAttachesOrCreates) {
  Broker broker;
  Topic& created = broker.EnsureTopic("t", 2);
  Topic& attached = broker.EnsureTopic("t", 2);
  EXPECT_EQ(&created, &attached);
  // Partition-count disagreement on an existing topic is a config error.
  EXPECT_THROW(broker.EnsureTopic("t", 3), std::invalid_argument);
}

TEST(TopicTest, BadPartitionThrows) {
  Topic topic("t", 2);
  std::vector<RecordView> out;
  EXPECT_THROW(topic.ReadViews(2, 0, 1, out), std::out_of_range);
  EXPECT_THROW(topic.EndOffset(2), std::out_of_range);
}

TEST(TopicTest, MetricsTrackBytes) {
  Topic topic("t", 1);
  topic.AppendViews(std::array{ProduceView{0, Payload({1, 2, 3}), 0}});
  topic.AppendViews(std::array{ProduceView{0, Payload({4, 5}), 0}});
  (void)ReadAll(topic, 0);
  const TopicMetrics metrics = topic.metrics();
  EXPECT_EQ(metrics.records_in, 2u);
  EXPECT_EQ(metrics.bytes_in, 5u);
  EXPECT_EQ(metrics.records_out, 2u);
  EXPECT_EQ(metrics.bytes_out, 5u);
}

TEST(TopicTest, ConcurrentProducersLoseNothing) {
  Topic topic("t", 4);
  constexpr int kThreads = 8, kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&topic, t] {
      const std::vector<uint8_t> payload = {1, 2};
      for (int i = 0; i < kPerThread; ++i) {
        topic.AppendViews(std::array{ProduceView{
            static_cast<uint64_t>(t * kPerThread + i), payload, 0}});
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  uint64_t total = 0;
  for (size_t p = 0; p < topic.num_partitions(); ++p) {
    total += topic.EndOffset(p);
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(TopicTest, ConcurrentProduceAndConsume) {
  // A producer thread races a consumer; the consumer must eventually see
  // every record exactly once, in per-partition order.
  Broker broker;
  Topic& topic = broker.CreateTopic("t", 2);
  transport::InProcessBus bus(broker);
  constexpr uint64_t kTotal = 20000;
  std::thread producer([&topic] {
    for (uint64_t i = 0; i < kTotal; ++i) {
      const auto byte = static_cast<uint8_t>(i & 0xFF);
      topic.AppendViews(std::array{ProduceView{
          i, std::span(&byte, 1), static_cast<int64_t>(i)}});
    }
  });
  transport::BusConsumer consumer(bus, "t");
  uint64_t seen = 0;
  std::array<int64_t, 2> last_ts = {-1, -1};
  std::vector<RecordView> batch;
  while (seen < kTotal) {
    batch.clear();
    consumer.PollInto(512, batch);
    for (const auto& record : batch) {
      const size_t p = PartitionForKey(record.key, topic.num_partitions());
      EXPECT_GT(record.timestamp_ms, last_ts[p]);  // per-partition order
      last_ts[p] = record.timestamp_ms;
      ++seen;
    }
  }
  producer.join();
  EXPECT_EQ(seen, kTotal);
  EXPECT_TRUE(consumer.CaughtUp());
}

TEST(BrokerTest, TopicLifecycle) {
  Broker broker;
  broker.CreateTopic("answers", 2);
  EXPECT_TRUE(broker.HasTopic("answers"));
  EXPECT_FALSE(broker.HasTopic("keys"));
  EXPECT_THROW(broker.CreateTopic("answers", 2), std::invalid_argument);
  EXPECT_THROW(broker.GetTopic("keys"), std::invalid_argument);
  broker.CreateTopic("keys", 2);
  const auto names = broker.TopicNames();
  EXPECT_EQ(names.size(), 2u);
}

TEST(BrokerTest, ProduceRoutesToTopic) {
  Broker broker;
  broker.CreateTopic("t", 1);
  transport::InProcessBus bus(broker);
  const std::vector<uint8_t> payload = {9};
  const ProduceView view{7, payload, 123};
  bus.Produce("t", std::span<const ProduceView>(&view, 1));
  const auto records = ReadAll(broker.GetTopic("t"), 0);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, 7u);
}

TEST(ConsumerTest, PollDrainsAllPartitions) {
  Broker broker;
  Topic& topic = broker.CreateTopic("t", 3);
  for (uint64_t key = 0; key < 100; ++key) {
    topic.AppendViews(std::array{
        ProduceView{key, Payload({static_cast<uint8_t>(key)}), 0}});
  }
  transport::InProcessBus bus(broker);
  transport::BusConsumer consumer(bus, "t");
  std::vector<RecordView> out;
  size_t total = 0;
  while (!consumer.CaughtUp()) {
    total += consumer.PollInto(7, out);
  }
  EXPECT_EQ(total, 100u);
  EXPECT_EQ(consumer.consumed(), 100u);
  EXPECT_EQ(consumer.PollInto(10, out), 0u);
}

TEST(ConsumerTest, ResumesFromOffsetAfterNewData) {
  Broker broker;
  Topic& topic = broker.CreateTopic("t", 1);
  topic.AppendViews(std::array{ProduceView{0, Payload({1}), 0}});
  transport::InProcessBus bus(broker);
  transport::BusConsumer consumer(bus, "t");
  std::vector<RecordView> batch;
  EXPECT_EQ(consumer.PollInto(10, batch), 1u);
  EXPECT_TRUE(consumer.CaughtUp());
  topic.AppendViews(std::array{ProduceView{0, Payload({2}), 0}});
  EXPECT_FALSE(consumer.CaughtUp());
  batch.clear();
  ASSERT_EQ(consumer.PollInto(10, batch), 1u);
  EXPECT_EQ(batch[0].payload[0], 2);
}

TEST(ConsumerTest, IndependentConsumersSeeAllData) {
  Broker broker;
  Topic& topic = broker.CreateTopic("t", 2);
  for (uint64_t key = 0; key < 50; ++key) {
    topic.AppendViews(std::array{ProduceView{key, Payload({0}), 0}});
  }
  transport::InProcessBus bus(broker);
  transport::BusConsumer a(bus, "t"), b(bus, "t");
  std::vector<RecordView> out;
  size_t count_a = 0, count_b = 0;
  while (!a.CaughtUp()) {
    count_a += a.PollInto(8, out);
  }
  while (!b.CaughtUp()) {
    count_b += b.PollInto(8, out);
  }
  EXPECT_EQ(count_a, 50u);
  EXPECT_EQ(count_b, 50u);
}

// ------------------------------------------------- slab-backed view paths

TEST(TopicTest, ViewsStayValidAcrossLaterAppends) {
  // RecordViews point into append-only slabs that are never moved, and
  // freed only by Release, so a view taken early must still read the same
  // bytes after enough appends to force many new slabs and index
  // reallocations.
  Topic topic("t", 1);
  topic.AppendViews(
      std::array{ProduceView{7, Payload({0xDE, 0xAD, 0xBE, 0xEF}), 1}});
  const std::vector<RecordView> early = ReadAll(topic, 0);
  ASSERT_EQ(early.size(), 1u);
  const std::vector<uint8_t> big(100 * 1024, 0x55);  // ~half a slab chunk
  for (int i = 0; i < 50; ++i) {
    topic.AppendViews(
        std::array{ProduceView{static_cast<uint64_t>(i), big, 2}});
  }
  ASSERT_EQ(early[0].payload_len, 4u);
  EXPECT_EQ(early[0].payload[0], 0xDE);
  EXPECT_EQ(early[0].payload[3], 0xEF);
}

TEST(TopicTest, ReserveMakesAppendsAllocationFreeAndHarmless) {
  // Reserve is a capacity hint: appends within the budget must behave
  // exactly like unreserved appends, and over-reserving must not disturb
  // reads or offsets.
  Topic topic("t", 2);
  topic.Reserve(0, 4096);
  topic.Reserve(1, 4096);
  for (uint64_t key = 0; key < 50; ++key) {
    topic.AppendViews(std::array{
        ProduceView{key, Payload({static_cast<uint8_t>(key)}), 0}});
  }
  size_t total = 0;
  for (size_t p = 0; p < 2; ++p) {
    total += ReadAll(topic, p).size();
  }
  EXPECT_EQ(total, 50u);
  EXPECT_THROW(topic.Reserve(9, 1), std::out_of_range);
}

TEST(TopicTest, WideTopicRoutesEveryRecordToItsPartition) {
  // More partitions than a byte can index: every record must land in the
  // partition its key hashes to.
  constexpr size_t kPartitions = 300;
  Topic topic("wide", kPartitions);
  std::vector<ProduceView> views;
  const std::vector<uint8_t> payload = Payload({1, 2, 3});
  for (uint64_t key = 0; key < 5000; ++key) {
    views.push_back(ProduceView{key, payload, 0});
  }
  topic.AppendViews(views);
  size_t total = 0;
  for (size_t p = 0; p < kPartitions; ++p) {
    for (const RecordView& record : ReadAll(topic, p)) {
      EXPECT_EQ(PartitionForKey(record.key, kPartitions), p)
          << "key " << record.key;
      ++total;
    }
  }
  EXPECT_EQ(total, 5000u);
}

// Appends `count` records with distinct payloads to a one-partition topic,
// one append call each.
void AppendNumbered(Topic& topic, uint64_t first, uint64_t count) {
  for (uint64_t i = first; i < first + count; ++i) {
    topic.AppendViews(std::array{ProduceView{
        i, Payload({static_cast<uint8_t>(i), static_cast<uint8_t>(i >> 8)}),
        static_cast<int64_t>(i)}});
  }
}

TEST(TopicTest, ReleaseBelowAtAndBeyondTheEnd) {
  Topic topic("t", 1);
  AppendNumbered(topic, 0, 10);
  topic.Release(0, 4);
  EXPECT_EQ(topic.slab_stats().retained_records, 6u);
  topic.Release(0, 2);  // below what is already released: no-op
  EXPECT_EQ(topic.slab_stats().retained_records, 6u);
  topic.Release(0, 10);  // exactly the end
  EXPECT_EQ(topic.slab_stats().retained_records, 0u);
  EXPECT_TRUE(ReadAll(topic, 0).empty());
  topic.Release(0, 1000);  // beyond the end clamps: later appends survive
  AppendNumbered(topic, 10, 3);
  EXPECT_EQ(topic.EndOffset(0), 13u);
  const auto tail = ReadAll(topic, 0, 10);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].offset, 10u);
  EXPECT_EQ(tail[0].key, 10u);
  EXPECT_THROW(topic.Release(1, 0), std::out_of_range);
}

TEST(TopicTest, ReleaseKeepsOffsetsCountersAndUnreleasedBytes) {
  Topic topic("t", 2);
  for (uint64_t key = 0; key < 400; ++key) {
    topic.AppendViews(std::array{
        ProduceView{key, Payload({static_cast<uint8_t>(key), 0x5A}),
                    static_cast<int64_t>(key)}});
  }
  // The views point into the slabs the release works on, so each record's
  // bytes are copied out before it; only offsets, keys and timestamps are
  // read from the views afterwards.
  std::vector<std::vector<RecordView>> before(2);
  std::vector<std::vector<std::vector<uint8_t>>> before_bytes(2);
  std::vector<uint64_t> release_at(2);
  for (size_t p = 0; p < 2; ++p) {
    before[p] = ReadAll(topic, p);
    for (const RecordView& record : before[p]) {
      before_bytes[p].emplace_back(record.bytes().begin(),
                                   record.bytes().end());
    }
    release_at[p] = topic.EndOffset(p) / 2;
  }
  const TopicMetrics counters = topic.metrics();
  for (size_t p = 0; p < 2; ++p) {
    topic.Release(p, release_at[p]);
  }
  EXPECT_EQ(topic.metrics().records_in, counters.records_in);
  EXPECT_EQ(topic.metrics().records_out, counters.records_out);
  EXPECT_EQ(topic.metrics().bytes_in, counters.bytes_in);
  EXPECT_EQ(topic.metrics().bytes_out, counters.bytes_out);
  for (size_t p = 0; p < 2; ++p) {
    EXPECT_EQ(topic.EndOffset(p), before[p].size());
    // Reads at the released offset, after it, and (clamped) below it all
    // return the retained records' bytes exactly as before the release.
    for (const uint64_t from :
         {release_at[p], release_at[p] + 3, uint64_t{0}}) {
      const auto after = ReadAll(topic, p, from);
      const uint64_t first = std::max(from, release_at[p]);
      ASSERT_EQ(after.size(), before[p].size() - first);
      for (size_t i = 0; i < after.size(); ++i) {
        const RecordView& expected = before[p][first + i];
        EXPECT_EQ(after[i].offset, expected.offset);
        EXPECT_EQ(after[i].key, expected.key);
        EXPECT_EQ(after[i].timestamp_ms, expected.timestamp_ms);
        EXPECT_EQ(std::vector<uint8_t>(after[i].bytes().begin(),
                                       after[i].bytes().end()),
                  before_bytes[p][first + i]);
      }
    }
  }
}

TEST(TopicTest, SlabBytesStayFlatOverAppendReleaseCycles) {
  // Each cycle appends about a third of a slab chunk and releases it, so
  // without reuse the topic would grow by hundreds of chunks.
  Topic topic("t", 1);
  const std::vector<uint8_t> payload(1000, 0x33);
  uint64_t allocated_after_warmup = 0;
  for (int cycle = 0; cycle < 1000; ++cycle) {
    for (int i = 0; i < 90; ++i) {
      topic.AppendViews(
          std::array{ProduceView{static_cast<uint64_t>(i), payload, cycle}});
    }
    topic.Release(0, topic.EndOffset(0));
    const SlabStats stats = topic.slab_stats();
    EXPECT_EQ(stats.retained_records, 0u);
    EXPECT_LE(stats.slabs, 1 + Topic::kSpareSlabs);
    if (cycle == 10) {
      allocated_after_warmup = stats.allocated_bytes;
    }
    if (cycle > 10) {
      ASSERT_EQ(stats.allocated_bytes, allocated_after_warmup)
          << "cycle " << cycle;
    }
  }
  EXPECT_EQ(topic.EndOffset(0), 90000u);
  EXPECT_LE(allocated_after_warmup,
            (1 + Topic::kSpareSlabs) * Topic::kSlabChunkBytes);
}


// --- Run index ------------------------------------------------------------

// A record as a plain list entry: the model the run index must match.
struct ModelRecord {
  uint64_t key = 0;
  int64_t timestamp_ms = 0;
  std::vector<uint8_t> payload;
};

// Every record a topic was handed, per partition in offset order, and the
// offset each partition has released below.
class RecordModel {
 public:
  explicit RecordModel(size_t partitions)
      : logs_(partitions), base_(partitions, 0) {}

  void Append(const ModelRecord& record) {
    logs_[PartitionForKey(record.key, logs_.size())].push_back(record);
  }
  void Release(size_t p, uint64_t offset) {
    base_[p] = std::max(base_[p], std::min<uint64_t>(offset, logs_[p].size()));
  }
  // A reopened durable topic replays every record the log holds.
  void Reopen() { std::fill(base_.begin(), base_.end(), 0); }

  uint64_t base(size_t p) const { return base_[p]; }
  uint64_t end(size_t p) const { return logs_[p].size(); }

  // What ReadViews(p, offset, max_records, max_bytes) must return.
  std::vector<RecordView> Expected(size_t p, uint64_t offset,
                                   size_t max_records,
                                   size_t max_bytes) const {
    std::vector<RecordView> out;
    size_t bytes = 0;
    for (uint64_t i = std::max(offset, base_[p]);
         i < logs_[p].size() && out.size() < max_records; ++i) {
      const ModelRecord& record = logs_[p][i];
      if (!out.empty() && bytes + record.payload.size() > max_bytes) {
        break;
      }
      out.push_back(RecordView{i, record.timestamp_ms, record.key,
                               record.payload.data(),
                               static_cast<uint32_t>(record.payload.size())});
      bytes += record.payload.size();
    }
    return out;
  }

  void CheckReadViews(const Topic& topic, size_t p, uint64_t offset,
                      size_t max_records, size_t max_bytes) const {
    std::vector<RecordView> got;
    topic.ReadViews(p, offset, max_records, got, max_bytes);
    ExpectRecords(got, Expected(p, offset, max_records, max_bytes));
  }

  // Every retained record, every EndOffset and the retained count.
  void CheckAll(const Topic& topic) const {
    uint64_t retained = 0;
    for (size_t p = 0; p < logs_.size(); ++p) {
      ASSERT_EQ(topic.EndOffset(p), end(p)) << "partition " << p;
      CheckReadViews(topic, p, 0, SIZE_MAX, SIZE_MAX);
      retained += end(p) - base_[p];
    }
    const SlabStats stats = topic.slab_stats();
    ASSERT_EQ(stats.retained_records, retained);
    ASSERT_LE(stats.index_runs, retained);
    ASSERT_GE(stats.index_bytes, stats.index_runs * Topic::kRunEntryBytes);
  }

 private:
  static void ExpectRecords(const std::vector<RecordView>& got,
                            const std::vector<RecordView>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].offset, want[i].offset);
      ASSERT_EQ(got[i].key, want[i].key) << "offset " << want[i].offset;
      ASSERT_EQ(got[i].timestamp_ms, want[i].timestamp_ms);
      ASSERT_TRUE(std::equal(got[i].bytes().begin(), got[i].bytes().end(),
                             want[i].bytes().begin(), want[i].bytes().end()))
          << "offset " << want[i].offset;
    }
  }

  std::vector<std::vector<ModelRecord>> logs_;
  std::vector<uint64_t> base_;
};

// A record of `len` random bytes. With `prefix_key` (and len >= 8) its key
// is its first 8 bytes, as a lane share's MID is; otherwise its key is
// random.
ModelRecord RandomRecord(std::mt19937_64& rng, size_t len, bool prefix_key,
                         int64_t timestamp_ms) {
  ModelRecord record{rng(), timestamp_ms, std::vector<uint8_t>(len)};
  for (uint8_t& byte : record.payload) {
    byte = static_cast<uint8_t>(rng());
  }
  if (prefix_key && len >= 8) {
    StoreLe<uint64_t>(record.payload.data(), record.key);
  }
  return record;
}

// One append call's records: mostly lane-like batches (one width and one
// timestamp, prefix keys) with the occasional record that breaks the run
// the way faults and deferrals do, or a mixed batch of every width and key
// kind, or a record larger than a slab chunk.
std::vector<ModelRecord> RandomBatch(std::mt19937_64& rng, int64_t now,
                                     size_t max_lane_records) {
  constexpr size_t kSmallWidths[] = {0, 1, 2, 5, 7, 8, 22};
  std::vector<ModelRecord> batch;
  const uint64_t kind = rng() % 10;
  if (kind < 6) {
    constexpr size_t kLaneWidths[] = {8, 22, 200};
    const size_t width = kLaneWidths[rng() % 3];
    const size_t n = 1 + rng() % max_lane_records;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t breaker = rng() % 50;
      if (breaker == 0) {  // truncated by a fault
        batch.push_back(RandomRecord(rng, rng() % width, true, now));
      } else if (breaker == 1) {  // deferred from the previous epoch
        batch.push_back(RandomRecord(rng, width, true, now - 1));
      } else if (breaker == 2) {  // mis-keyed
        batch.push_back(RandomRecord(rng, width, false, now));
      } else {
        batch.push_back(RandomRecord(rng, width, true, now));
      }
    }
  } else if (kind < 9) {
    const size_t n = 1 + rng() % 40;
    for (size_t i = 0; i < n; ++i) {
      batch.push_back(RandomRecord(rng, kSmallWidths[rng() % 7], rng() % 2,
                                   now - static_cast<int64_t>(rng() % 2)));
    }
  } else {
    batch.push_back(RandomRecord(rng, Topic::kSlabChunkBytes + 24, rng() % 2,
                                 now));
  }
  return batch;
}

// Runs `steps` random appends, releases, reserves and reads against
// `topic` and `model`, checking the whole topic after each step.
void RunModelSequence(Topic& topic, RecordModel& model, std::mt19937_64& rng,
                      int steps, size_t max_lane_records) {
  const size_t partitions = topic.num_partitions();
  for (int step = 0; step < steps; ++step) {
    const int64_t now = 1000 * (1 + step / 4);  // a few calls per "epoch"
    const uint64_t op = rng() % 100;
    const size_t p = rng() % partitions;
    // Offsets a little below the released base to a little past the end.
    const uint64_t lo = model.base(p) > 3 ? model.base(p) - 3 : 0;
    const uint64_t offset = lo + rng() % (model.end(p) - lo + 6);
    if (op < 45) {
      const std::vector<ModelRecord> batch =
          RandomBatch(rng, now, max_lane_records);
      std::vector<ProduceView> views;
      for (const ModelRecord& r : batch) {
        views.push_back(ProduceView{r.key, r.payload, r.timestamp_ms});
      }
      if (op < 38) {  // one call
        topic.AppendViews(views);
      } else {  // one call per record
        for (size_t i = 0; i < views.size(); ++i) {
          topic.AppendViews(std::span(views).subspan(i, 1));
        }
      }
      for (const ModelRecord& r : batch) {
        model.Append(r);
      }
    } else if (op < 62) {
      topic.Release(p, offset);
      model.Release(p, offset);
    } else if (op < 65) {
      // Opens a slab when the back one cannot take this much: the next
      // append lands there, not behind the back run.
      topic.Reserve(p, rng() % (2 * Topic::kSlabChunkBytes));
    } else if (op < 85) {
      const size_t max_records = rng() % 400;
      const size_t max_bytes = rng() % 2 ? SIZE_MAX : rng() % 3000;
      model.CheckReadViews(topic, p, offset, max_records, max_bytes);
    } else {
      model.CheckReadViews(topic, p, offset, rng() % 400, SIZE_MAX);
    }
    ASSERT_NO_FATAL_FAILURE(model.CheckAll(topic)) << "step " << step;
  }
}

TEST(TopicTest, RunIndexMatchesRecordModel) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    Topic topic("t", 3);
    RecordModel model(3);
    RunModelSequence(topic, model, rng, 300, 3000);
  }
  // Durable: a reopened topic replays its log through the append path and
  // must serve every record the log holds; appends after the reopen
  // continue the numbering.
  struct ScratchDir {
    std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("privapprox_run_index_" + std::to_string(::getpid()));
    ~ScratchDir() { std::filesystem::remove_all(path); }
  } dir;
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    SCOPED_TRACE("durable seed " + std::to_string(seed));
    std::filesystem::remove_all(dir.path);
    std::mt19937_64 rng(seed);
    RecordModel model(2);
    for (int life = 0; life < 3; ++life) {
      Topic topic("t", 2, TopicDurability{dir.path, {}});
      model.Reopen();
      ASSERT_NO_FATAL_FAILURE(model.CheckAll(topic)) << "life " << life;
      RunModelSequence(topic, model, rng, 60, 800);
    }
  }
}

TEST(TopicTest, LaneRunsCostOneEntryPerRun) {
  // One AppendViews of 6,000 lane shares (fixed width, keyed by their MID
  // prefix, one timestamp) indexes one run per partition per slab it
  // touches, and a later call of the same epoch extends those runs.
  for (const size_t width : {size_t{22}, size_t{200}}) {
    SCOPED_TRACE("width " + std::to_string(width));
    std::mt19937_64 rng(width);
    Topic topic("lane", 4);
    std::vector<ModelRecord> records;
    for (int i = 0; i < 6000; ++i) {
      records.push_back(RandomRecord(rng, width, true, 5000));
    }
    std::vector<ProduceView> views;
    for (const ModelRecord& r : records) {
      views.push_back(ProduceView{r.key, r.payload, r.timestamp_ms});
    }
    topic.AppendViews(views);
    SlabStats stats = topic.slab_stats();
    EXPECT_EQ(stats.retained_records, 6000u);
    EXPECT_EQ(stats.index_runs, stats.slabs);
    if (width == 22) {
      EXPECT_EQ(stats.index_runs, topic.num_partitions());
    } else {
      EXPECT_GT(stats.slabs, topic.num_partitions());  // crossed chunks
    }
    EXPECT_LE(stats.index_bytes, 2 * stats.index_runs * Topic::kRunEntryBytes);
    topic.AppendViews(views);  // same epoch: contiguous, same shape
    stats = topic.slab_stats();
    EXPECT_EQ(stats.index_runs, stats.slabs);
    // A new epoch's timestamp starts new runs, one per partition.
    for (ProduceView& view : views) {
      view.timestamp_ms = 6000;
    }
    const uint64_t runs_before = stats.index_runs;
    const uint64_t slabs_before = stats.slabs;
    topic.AppendViews(views);
    stats = topic.slab_stats();
    EXPECT_EQ(stats.index_runs - runs_before,
              topic.num_partitions() + (stats.slabs - slabs_before));
    RecordModel model(4);
    for (int copy = 0; copy < 3; ++copy) {
      for (ModelRecord r : records) {
        r.timestamp_ms = copy < 2 ? 5000 : 6000;
        model.Append(r);
      }
    }
    model.CheckAll(topic);
  }
}

TEST(TopicTest, HostileRecordsCostNoMoreThanARecordIndex) {
  // A producer can make every record break the run: vary the width or the
  // timestamp, key records by something other than the payload prefix, or
  // send payloads too short to hold a key. The index then holds one entry
  // per record, no larger than a per-record index entry.
  static_assert(Topic::kRunEntryBytes <= 32);
  constexpr size_t kRecords = 1000;
  for (int shape = 0; shape < 4; ++shape) {
    SCOPED_TRACE("shape " + std::to_string(shape));
    std::mt19937_64 rng(static_cast<uint64_t>(shape) + 7);
    Topic topic("hostile", 1);
    RecordModel model(1);
    std::vector<ModelRecord> records;
    for (size_t i = 0; i < kRecords; ++i) {
      const auto ts = static_cast<int64_t>(i);
      switch (shape) {
        case 0:
          records.push_back(RandomRecord(rng, 22 + i % 2, true, 0));
          break;
        case 1:
          records.push_back(RandomRecord(rng, 22, true, ts));
          break;
        case 2:
          records.push_back(RandomRecord(rng, 22, false, 0));
          break;
        default:
          records.push_back(RandomRecord(rng, i % 8, true, 0));
          break;
      }
      model.Append(records.back());
    }
    std::vector<ProduceView> views;
    for (const ModelRecord& r : records) {
      views.push_back(ProduceView{r.key, r.payload, r.timestamp_ms});
    }
    topic.AppendViews(views);
    SlabStats stats = topic.slab_stats();
    EXPECT_EQ(stats.index_runs, kRecords);
    EXPECT_LE(stats.index_bytes, 2 * kRecords * Topic::kRunEntryBytes);
    model.CheckAll(topic);
    topic.Release(0, kRecords / 2);
    model.Release(0, kRecords / 2);
    stats = topic.slab_stats();
    EXPECT_EQ(stats.index_runs, stats.retained_records);
    model.CheckAll(topic);
  }
}

}  // namespace
}  // namespace privapprox::broker
