// Tests for the proxy runtime: share encode/decode and transmission-only
// forwarding.

#include <gtest/gtest.h>

#include "broker/broker.h"
#include "proxy/proxy.h"
#include "transport/inproc_bus.h"

namespace privapprox::proxy {
namespace {

TEST(ProxyTest, CreatesItsTopics) {
  broker::Broker b;
  Proxy proxy(ProxyConfig{0, 2}, b);
  EXPECT_TRUE(b.HasTopic("proxy0.in"));
  EXPECT_TRUE(b.HasTopic("proxy0.out"));
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
  Proxy proxy(ProxyConfig{1, 4}, b);
  for (uint64_t mid = 0; mid < 100; ++mid) {
    proxy.Receive(crypto::MessageShare{mid, {static_cast<uint8_t>(mid)}},
                  static_cast<int64_t>(mid));
  }
  EXPECT_EQ(proxy.Forward(), 100u);
  EXPECT_EQ(proxy.forwarded(), 100u);
  transport::InProcessBus bus(b);
  transport::BusConsumer consumer(bus, "proxy1.out");
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

TEST(ProxyTest, ForwardPreservesTimestamps) {
  broker::Broker b;
  Proxy proxy(ProxyConfig{0, 1}, b);
  proxy.Receive(crypto::MessageShare{1, {9}}, 12345);
  proxy.Forward();
  transport::InProcessBus bus(b);
  transport::BusConsumer consumer(bus, "proxy0.out");
  std::vector<broker::RecordView> records;
  ASSERT_EQ(consumer.PollInto(10, records), 1u);
  EXPECT_EQ(records[0].timestamp_ms, 12345);
}

TEST(ProxyTest, ForwardOnEmptyQueueIsZero) {
  broker::Broker b;
  Proxy proxy(ProxyConfig{0, 2}, b);
  EXPECT_EQ(proxy.Forward(), 0u);
}

TEST(ProxyTest, RepeatedForwardOnlyMovesNewRecords) {
  broker::Broker b;
  Proxy proxy(ProxyConfig{0, 2}, b);
  proxy.Receive(crypto::MessageShare{1, {1}}, 0);
  EXPECT_EQ(proxy.Forward(), 1u);
  EXPECT_EQ(proxy.Forward(), 0u);
  proxy.Receive(crypto::MessageShare{2, {2}}, 0);
  EXPECT_EQ(proxy.Forward(), 1u);
  EXPECT_EQ(proxy.forwarded(), 2u);
}

TEST(ProxyTest, TwoProxiesAreIndependent) {
  broker::Broker b;
  Proxy p0(ProxyConfig{0, 2}, b);
  Proxy p1(ProxyConfig{1, 2}, b);
  p0.Receive(crypto::MessageShare{1, {1}}, 0);
  EXPECT_EQ(p0.Forward(), 1u);
  EXPECT_EQ(p1.Forward(), 0u);  // p1 never saw the share
}

}  // namespace
}  // namespace privapprox::proxy
