// Tests for the proxy runtime: share encode/decode and transmission-only
// forwarding.

#include <gtest/gtest.h>

#include "broker/broker.h"
#include "proxy/proxy.h"
#include "transport/inproc_bus.h"

namespace privapprox::proxy {
namespace {

constexpr uint64_t kQid = 1;

// Enqueues one owning share on the proxy's lane for kQid.
void ReceiveShare(Proxy& proxy, const crypto::MessageShare& share,
                  int64_t timestamp_ms) {
  const std::vector<uint8_t> encoded = Proxy::EncodeShare(share);
  const broker::ProduceView view{share.message_id, encoded, timestamp_ms};
  proxy.Receive(kQid, std::span<const broker::ProduceView>(&view, 1));
}

TEST(ProxyTest, CreatesItsTopics) {
  broker::Broker b;
  transport::InProcessBus bus(b);
  Proxy proxy(ProxyConfig{0, 2}, bus);
  EXPECT_TRUE(b.HasTopic("proxy0.query.in"));
  EXPECT_TRUE(b.HasTopic("proxy0.query.out"));
  // Share topics exist per query lane only.
  EXPECT_FALSE(b.HasTopic("proxy0.in"));
  EXPECT_FALSE(b.HasTopic("proxy0.out"));
  proxy.EnsureLane(kQid);
  EXPECT_TRUE(b.HasTopic("proxy0.q1.in"));
  EXPECT_TRUE(b.HasTopic("proxy0.q1.out"));
  EXPECT_EQ(proxy.index(), 0u);
}

TEST(ProxyTest, ShareEncodeDecodeRoundTrip) {
  const crypto::MessageShare share{0x0123456789ABCDEFULL, {1, 2, 3, 0xFF}};
  const auto bytes = Proxy::EncodeShare(share);
  EXPECT_EQ(bytes.size(), 8u + 4u);
  EXPECT_EQ(Proxy::DecodeShare(bytes), share);
}

TEST(ProxyTest, DecodeRejectsTruncatedShare) {
  const std::vector<uint8_t> truncated{1, 2, 3};
  EXPECT_THROW(Proxy::DecodeShare(truncated), std::invalid_argument);
}

TEST(ProxyTest, DecodeOfEmptyPayloadShare) {
  const crypto::MessageShare share{42, {}};
  EXPECT_EQ(Proxy::DecodeShare(Proxy::EncodeShare(share)), share);
}

TEST(ProxyTest, ForwardMovesEverythingInToOut) {
  broker::Broker b;
  transport::InProcessBus bus(b);
  Proxy proxy(ProxyConfig{1, 4}, bus);
  proxy.EnsureLane(kQid);
  for (uint64_t mid = 0; mid < 100; ++mid) {
    ReceiveShare(proxy, crypto::MessageShare{mid, {static_cast<uint8_t>(mid)}},
                 static_cast<int64_t>(mid));
  }
  EXPECT_EQ(proxy.ForwardLanes(), 100u);
  EXPECT_EQ(proxy.forwarded(), 100u);
  transport::BusConsumer consumer(bus, proxy.lane_out_topic(kQid));
  std::vector<broker::RecordView> batch;
  size_t count = 0;
  while (!consumer.CaughtUp()) {
    batch.clear();
    consumer.PollInto(32, batch);
    for (const auto& record : batch) {
      const auto share = Proxy::DecodeShare(record.bytes());
      EXPECT_EQ(share.payload.size(), 1u);
      ++count;
    }
  }
  EXPECT_EQ(count, 100u);
}

TEST(ProxyTest, ForwardReleasesTheLaneInTopic) {
  broker::Broker b;
  transport::InProcessBus bus(b);
  ProxyConfig config;
  config.num_partitions = 2;
  Proxy proxy(config, bus);
  proxy.EnsureLane(kQid);
  for (uint64_t mid = 0; mid < 10; ++mid) {
    ReceiveShare(proxy, crypto::MessageShare{mid, {1}}, 0);
  }
  const broker::Topic& in = b.GetTopic(proxy.lane_in_topic(kQid));
  EXPECT_EQ(in.slab_stats().retained_records, 10u);
  EXPECT_EQ(proxy.ForwardLanes(), 10u);
  // The proxy is the in-topic's only consumer: what it forwarded is freed,
  // the offsets stay, and the out-topic keeps everything for its consumer.
  EXPECT_EQ(in.slab_stats().retained_records, 0u);
  EXPECT_EQ(in.EndOffset(0) + in.EndOffset(1), 10u);
  EXPECT_EQ(
      b.GetTopic(proxy.lane_out_topic(kQid)).slab_stats().retained_records,
      10u);
  // A share that arrives later stays until the forward that moves it.
  ReceiveShare(proxy, crypto::MessageShare{99, {1}}, 0);
  EXPECT_EQ(in.slab_stats().retained_records, 1u);
  EXPECT_EQ(proxy.ForwardLanes(), 1u);
  EXPECT_EQ(in.slab_stats().retained_records, 0u);
}

TEST(ProxyTest, ForwardPreservesTimestamps) {
  broker::Broker b;
  transport::InProcessBus bus(b);
  Proxy proxy(ProxyConfig{0, 1}, bus);
  proxy.EnsureLane(kQid);
  ReceiveShare(proxy, crypto::MessageShare{1, {9}}, 12345);
  proxy.ForwardLanes();
  transport::BusConsumer consumer(bus, proxy.lane_out_topic(kQid));
  std::vector<broker::RecordView> records;
  ASSERT_EQ(consumer.PollInto(10, records), 1u);
  EXPECT_EQ(records[0].timestamp_ms, 12345);
}

TEST(ProxyTest, ForwardOnEmptyQueueIsZero) {
  broker::Broker b;
  transport::InProcessBus bus(b);
  Proxy proxy(ProxyConfig{0, 2}, bus);
  EXPECT_EQ(proxy.ForwardLanes(), 0u);
  proxy.EnsureLane(kQid);
  EXPECT_EQ(proxy.ForwardLanes(), 0u);
}

TEST(ProxyTest, RepeatedForwardOnlyMovesNewRecords) {
  broker::Broker b;
  transport::InProcessBus bus(b);
  Proxy proxy(ProxyConfig{0, 2}, bus);
  proxy.EnsureLane(kQid);
  ReceiveShare(proxy, crypto::MessageShare{1, {1}}, 0);
  EXPECT_EQ(proxy.ForwardLanes(), 1u);
  EXPECT_EQ(proxy.ForwardLanes(), 0u);
  ReceiveShare(proxy, crypto::MessageShare{2, {2}}, 0);
  EXPECT_EQ(proxy.ForwardLanes(), 1u);
  EXPECT_EQ(proxy.forwarded(), 2u);
}

TEST(ProxyTest, TwoProxiesAreIndependent) {
  broker::Broker b;
  transport::InProcessBus bus(b);
  Proxy p0(ProxyConfig{0, 2}, bus);
  Proxy p1(ProxyConfig{1, 2}, bus);
  p0.EnsureLane(kQid);
  p1.EnsureLane(kQid);
  ReceiveShare(p0, crypto::MessageShare{1, {1}}, 0);
  EXPECT_EQ(p0.ForwardLanes(), 1u);
  EXPECT_EQ(p1.ForwardLanes(), 0u);  // p1 never saw the share
}

}  // namespace
}  // namespace privapprox::proxy
