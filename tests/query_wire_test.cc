// Tests for the query-announcement wire format and the broker-routed query
// distribution path (analyst -> aggregator -> proxies -> clients).

#include <gtest/gtest.h>

#include "broker/broker.h"
#include "client/client.h"
#include "core/query_wire.h"
#include "proxy/proxy.h"
#include "transport/inproc_bus.h"

namespace privapprox::core {
namespace {

Query MakeQuery() {
  std::vector<Bucket> buckets;
  buckets.push_back(NumericBucket{0.0, 1.5});
  buckets.push_back(NumericBucket{1.5, std::numeric_limits<double>::infinity()});
  buckets.push_back(MatchBucket{"exact", false});
  buckets.push_back(MatchBucket{"wild*", true});
  return QueryBuilder()
      .WithId(0xABCDEF0123456789ULL)
      .WithAnalyst(7)
      .WithSql("SELECT distance FROM rides WHERE borough = 'queens'")
      .WithAnswerFormat(AnswerFormat(std::move(buckets)))
      .WithFrequencyMs(500)
      .WithWindowMs(60000)
      .WithSlideMs(15000)
      .Build();
}

ExecutionParams MakeParams() {
  ExecutionParams params;
  params.sampling_fraction = 0.37;
  params.randomization = {0.81, 0.62};
  return params;
}

TEST(QueryWireTest, RoundTripPreservesEverything) {
  const QueryAnnouncement original{MakeQuery(), MakeParams()};
  const QueryAnnouncement parsed =
      DeserializeAnnouncement(SerializeAnnouncement(original));
  EXPECT_EQ(parsed, original);
  // Bucket semantics survive, not just counts.
  EXPECT_EQ(parsed.query.answer_format.BucketOf(1.0).value(), 0u);
  EXPECT_EQ(parsed.query.answer_format.BucketOf(99.0).value(), 1u);
  EXPECT_EQ(parsed.query.answer_format.BucketOf(std::string("exact")).value(),
            2u);
  EXPECT_EQ(
      parsed.query.answer_format.BucketOf(std::string("wildcat")).value(),
      3u);
}

TEST(QueryWireTest, SignatureSurvivesRoundTrip) {
  const QueryAnnouncement original{MakeQuery(), MakeParams()};
  const QueryAnnouncement parsed =
      DeserializeAnnouncement(SerializeAnnouncement(original));
  EXPECT_TRUE(parsed.query.VerifySignature());
}

TEST(QueryWireTest, TamperedSqlFailsSignatureAfterParse) {
  QueryAnnouncement ann{MakeQuery(), MakeParams()};
  auto bytes = SerializeAnnouncement(ann);
  // Flip a byte inside the SQL text region (search for 'rides').
  const std::string needle = "rides";
  const auto it = std::search(bytes.begin(), bytes.end(), needle.begin(),
                              needle.end());
  ASSERT_NE(it, bytes.end());
  *it ^= 0x01;
  const QueryAnnouncement parsed = DeserializeAnnouncement(bytes);
  EXPECT_FALSE(parsed.query.VerifySignature());
}

TEST(QueryWireTest, TruncationThrows) {
  const auto bytes =
      SerializeAnnouncement(QueryAnnouncement{MakeQuery(), MakeParams()});
  for (size_t keep : {size_t{0}, size_t{3}, size_t{6}, size_t{20}, bytes.size() - 1}) {
    std::vector<uint8_t> truncated(bytes.begin(),
                                   bytes.begin() + static_cast<long>(keep));
    EXPECT_THROW(DeserializeAnnouncement(truncated), WireError)
        << "keep=" << keep;
  }
}

// A relayed announcement whose bucket count claims 2^20 buckets, the most
// the decoder's sanity cap admits, with only a few bytes behind it. The
// decoder must refuse the count before reserving anything for it.
TEST(QueryWireTest, BucketCountBeyondTheBytesThrows) {
  const QueryAnnouncement ann{MakeQuery(), MakeParams()};
  std::vector<uint8_t> bytes = SerializeAnnouncement(ann);
  // magic, version, three ids, the SQL string, three durations.
  const size_t count_at = 4 + 2 + 3 * 8 + 4 + ann.query.sql.size() + 3 * 8;
  ASSERT_EQ(bytes[count_at], ann.query.answer_format.num_buckets());
  for (int i = 0; i < 4; ++i) {
    bytes[count_at + i] = static_cast<uint8_t>((1u << 20) >> (8 * i));
  }
  EXPECT_THROW(DeserializeAnnouncement(bytes), WireError);
}

TEST(QueryWireTest, BadMagicAndVersionThrow) {
  auto bytes =
      SerializeAnnouncement(QueryAnnouncement{MakeQuery(), MakeParams()});
  auto bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(DeserializeAnnouncement(bad_magic), WireError);
  auto bad_version = bytes;
  bad_version[4] = 0xEE;
  EXPECT_THROW(DeserializeAnnouncement(bad_version), WireError);
}

TEST(QueryWireTest, GarbageThrows) {
  EXPECT_THROW(DeserializeAnnouncement(std::vector<uint8_t>{}), WireError);
  EXPECT_THROW(
      DeserializeAnnouncement(std::vector<uint8_t>{1, 2, 3, 4, 5, 6, 7, 8}),
      WireError);
}

TEST(QueryDistributionTest, AnnouncementReachesClientThroughProxy) {
  broker::Broker b;
  transport::InProcessBus bus(b);
  proxy::Proxy proxy(proxy::ProxyConfig{0, 2}, bus);
  const QueryAnnouncement ann{MakeQuery(), MakeParams()};
  const std::vector<uint8_t> bytes = SerializeAnnouncement(ann);
  const broker::ProduceView view{/*key=*/0, bytes, /*timestamp_ms=*/0};
  bus.Produce(proxy::QueryInTopic(0),
              std::span<const broker::ProduceView>(&view, 1));
  EXPECT_EQ(proxy.ForwardQueries(), 1u);

  transport::BusConsumer consumer(bus, proxy::QueryOutTopic(0));
  std::vector<broker::RecordView> records;
  ASSERT_EQ(consumer.PollInto(4, records), 1u);

  client::Client client(client::ClientConfig{0, 2, 1});
  const auto compiled = client::CompileAnnouncement(records[0].bytes());
  EXPECT_EQ(compiled->query.sql, ann.query.sql);
  client.Subscribe(compiled);
  EXPECT_EQ(client.num_subscriptions(), 1u);
  EXPECT_NO_THROW(client.TruthfulAnswer(ann.query.query_id, 0));
}

TEST(QueryDistributionTest, ClientRejectsTamperedAnnouncement) {
  client::Client client(client::ClientConfig{0, 2, 1});
  auto bytes =
      SerializeAnnouncement(QueryAnnouncement{MakeQuery(), MakeParams()});
  const std::string needle = "SELECT";
  const auto it = std::search(bytes.begin(), bytes.end(), needle.begin(),
                              needle.end());
  ASSERT_NE(it, bytes.end());
  *it ^= 0x01;
  EXPECT_THROW(client.Subscribe(client::CompileAnnouncement(bytes)),
               std::invalid_argument);
  EXPECT_FALSE(client.subscribed());
}

TEST(QueryDistributionTest, ClientRejectsMalformedAnnouncement) {
  client::Client client(client::ClientConfig{0, 2, 1});
  const std::vector<uint8_t> bytes = {0xDE, 0xAD};
  EXPECT_THROW(client.Subscribe(client::CompileAnnouncement(bytes)), WireError);
}

TEST(QueryDistributionTest, ClientRejectsInvalidParams) {
  client::Client client(client::ClientConfig{0, 2, 1});
  QueryAnnouncement ann{MakeQuery(), MakeParams()};
  ann.params.sampling_fraction = 1.7;  // invalid
  EXPECT_THROW(
      client.Subscribe(client::CompileAnnouncement(SerializeAnnouncement(ann))),
      std::invalid_argument);
}

// A Query is a plain struct, so a correctly signed one can still carry a
// slide longer than its window, a non-positive period, or QID 0. The
// client refuses those before subscribing, exactly as QueryBuilder::Build
// would have.
TEST(QueryDistributionTest, ClientRejectsStructurallyInvalidQuery) {
  const auto signed_announcement = [](void (*mutate)(Query&)) {
    Query query = MakeQuery();
    mutate(query);
    query.Sign();
    return SerializeAnnouncement(QueryAnnouncement{query, MakeParams()});
  };
  const std::vector<std::vector<uint8_t>> refused = {
      signed_announcement(
          [](Query& q) { q.sliding_interval_ms = q.window_length_ms + 1; }),
      signed_announcement([](Query& q) { q.answer_frequency_ms = 0; }),
      signed_announcement([](Query& q) { q.window_length_ms = -1; }),
      signed_announcement([](Query& q) { q.sliding_interval_ms = 0; }),
      signed_announcement([](Query& q) { q.query_id = 0; }),
  };
  client::Client client(client::ClientConfig{0, 2, 1});
  for (const std::vector<uint8_t>& bytes : refused) {
    EXPECT_THROW(client.Subscribe(client::CompileAnnouncement(bytes)),
                 std::invalid_argument);
  }
  EXPECT_FALSE(client.subscribed());
}

}  // namespace
}  // namespace privapprox::core
