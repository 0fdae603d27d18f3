// The transport layer minus sockets: frame codec edges, the wire protocol
// dispatch, BusConsumer semantics (including the promised-count error
// paths), the InProcessBus facade, topic routing, and Release on each of
// them. Socket-level behavior lives in tcp_bus_test.cc.

#include <gtest/gtest.h>

#include <bit>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "broker/broker.h"
#include "deploy/result_wire.h"
#include "storage/crc32.h"
#include "storage/record_batch.h"
#include "transport/frame.h"
#include "transport/inproc_bus.h"
#include "transport/message_bus.h"
#include "transport/wire.h"

namespace privapprox::transport {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

broker::ProduceView View(const std::vector<uint8_t>& payload, uint64_t key,
                         int64_t ts = 0) {
  return broker::ProduceView{key, payload, ts};
}

struct PolledRecord {
  uint64_t offset = 0;
  uint64_t key = 0;
  int64_t timestamp_ms = 0;
  std::vector<uint8_t> payload;
};

// Decodes the rest of an ok Poll response: [u64 base offset][batch].
std::vector<PolledRecord> TakePolled(WireReader& reply) {
  uint64_t offset = reply.TakeU64();
  const storage::RecordBatchView batch(reply.TakeRaw(reply.remaining()));
  std::vector<PolledRecord> records;
  batch.ForEach([&](const storage::BatchRecord& record) {
    records.push_back(PolledRecord{
        offset++, record.key, record.timestamp_ms,
        std::vector<uint8_t>(record.payload.begin(), record.payload.end())});
  });
  return records;
}

TEST(FrameTest, RoundTrip) {
  const std::vector<uint8_t> payload = Bytes("hello frame");
  std::vector<uint8_t> encoded;
  EncodeFrame(payload, encoded);
  ASSERT_EQ(encoded.size(), kFrameHeaderBytes + payload.size());
  const FrameDecodeResult result = TryDecodeFrame(encoded);
  ASSERT_EQ(result.status, FrameStatus::kFrame);
  EXPECT_EQ(result.consumed, encoded.size());
  EXPECT_EQ(std::vector<uint8_t>(result.payload.begin(), result.payload.end()),
            payload);
}

TEST(FrameTest, EmptyPayloadRoundTrips) {
  std::vector<uint8_t> encoded;
  EncodeFrame({}, encoded);
  ASSERT_EQ(encoded.size(), kFrameHeaderBytes);
  const FrameDecodeResult result = TryDecodeFrame(encoded);
  ASSERT_EQ(result.status, FrameStatus::kFrame);
  EXPECT_EQ(result.payload.size(), 0u);
}

TEST(FrameTest, TruncatedHeaderNeedsMore) {
  std::vector<uint8_t> encoded;
  EncodeFrame(Bytes("x"), encoded);
  for (size_t len = 0; len < kFrameHeaderBytes; ++len) {
    const FrameDecodeResult result =
        TryDecodeFrame(std::span<const uint8_t>(encoded.data(), len));
    EXPECT_EQ(result.status, FrameStatus::kNeedMore) << "prefix " << len;
  }
}

TEST(FrameTest, TruncatedPayloadNeedsMore) {
  std::vector<uint8_t> encoded;
  EncodeFrame(Bytes("truncate me"), encoded);
  for (size_t len = kFrameHeaderBytes; len < encoded.size(); ++len) {
    const FrameDecodeResult result =
        TryDecodeFrame(std::span<const uint8_t>(encoded.data(), len));
    EXPECT_EQ(result.status, FrameStatus::kNeedMore) << "prefix " << len;
  }
}

TEST(FrameTest, CrcMismatchIsProtocolError) {
  std::vector<uint8_t> encoded;
  EncodeFrame(Bytes("guarded payload"), encoded);
  encoded.back() ^= 0x01;  // flip one payload bit
  EXPECT_EQ(TryDecodeFrame(encoded).status, FrameStatus::kCrcMismatch);
}

TEST(FrameTest, FlippedLengthShowsUpAsErrorNotHang) {
  std::vector<uint8_t> encoded;
  EncodeFrame(Bytes("abcdef"), encoded);
  // Corrupt the length prefix downward: the CRC now covers the wrong bytes.
  encoded[0] = 2;
  const FrameDecodeResult result = TryDecodeFrame(encoded);
  EXPECT_EQ(result.status, FrameStatus::kCrcMismatch);
}

TEST(FrameTest, MaxLengthFrameDecodes) {
  // The cap bounds the payload length: exactly max_frame_bytes of payload
  // is still a valid frame.
  const size_t max_frame = 4096;
  const std::vector<uint8_t> payload(max_frame, 0xAB);
  std::vector<uint8_t> encoded;
  EncodeFrame(payload, encoded);
  const FrameDecodeResult result = TryDecodeFrame(encoded, max_frame);
  ASSERT_EQ(result.status, FrameStatus::kFrame);
  EXPECT_EQ(result.payload.size(), payload.size());
}

TEST(FrameTest, OversizedLengthIsQuarantined) {
  const size_t max_frame = 4096;
  const std::vector<uint8_t> payload(max_frame + 1, 0xCD);  // one byte over
  std::vector<uint8_t> encoded;
  EncodeFrame(payload, encoded);
  EXPECT_EQ(TryDecodeFrame(encoded, max_frame).status, FrameStatus::kTooLarge);
}

TEST(FrameTest, InPlaceFrameMatchesEncodeFrameAndTheHeaderLayout) {
  std::vector<uint8_t> body;
  const std::vector<uint8_t> a = Bytes("share-a"), b = Bytes("share-bb");
  const std::vector<broker::ProduceView> records = {View(a, 1, 10),
                                                    View(b, 2, 20)};
  BuildProduceRequest("lane", records, body);
  // [u32 len][u32 crc32(payload)][payload], little-endian, built by hand.
  std::vector<uint8_t> want;
  PutU32(static_cast<uint32_t>(body.size()), want);
  PutU32(storage::Crc32(body.data(), body.size()), want);
  want.insert(want.end(), body.begin(), body.end());
  std::vector<uint8_t> encoded;
  EncodeFrame(body, encoded);
  EXPECT_EQ(encoded, want);
  // The client's path: the request is built behind the header placeholder
  // and sealed where it lies, after whatever the buffer already held.
  std::vector<uint8_t> in_place = Bytes("earlier");
  const size_t start = BeginFrame(in_place);
  BuildProduceRequest("lane", records, in_place);
  SealFrame(in_place, start);
  std::vector<uint8_t> expected = Bytes("earlier");
  expected.insert(expected.end(), want.begin(), want.end());
  EXPECT_EQ(in_place, expected);
}

TEST(FrameTest, BackToBackFramesDecodeInOrder) {
  std::vector<uint8_t> buffer;
  EncodeFrame(Bytes("first"), buffer);
  EncodeFrame(Bytes("second"), buffer);
  const FrameDecodeResult first = TryDecodeFrame(buffer);
  ASSERT_EQ(first.status, FrameStatus::kFrame);
  EXPECT_EQ(std::string(first.payload.begin(), first.payload.end()), "first");
  buffer.erase(buffer.begin(),
               buffer.begin() + static_cast<ptrdiff_t>(first.consumed));
  const FrameDecodeResult second = TryDecodeFrame(buffer);
  ASSERT_EQ(second.status, FrameStatus::kFrame);
  EXPECT_EQ(std::string(second.payload.begin(), second.payload.end()),
            "second");
}

// --- Wire protocol: request bytes -> HandleRequest -> response bytes ---

class WireProtocolTest : public ::testing::Test {
 protected:
  // Runs one request through the pure dispatcher and strips the status byte.
  // HandleRequest appends, so each call starts from an empty buffer.
  WireReader Call(const std::vector<uint8_t>& request) {
    response_.clear();
    HandleRequest(&broker_, control_, request, response_);
    WireReader reader(response_);
    const uint8_t status = reader.TakeU8();
    if (status != kWireOk) {
      throw std::runtime_error("wire error: " + reader.TakeString());
    }
    return reader;
  }

  broker::Broker broker_;
  ControlHandler control_;
  std::vector<uint8_t> response_;
};

TEST_F(WireProtocolTest, EnsureProduceAndPollRoundTrip) {
  std::vector<uint8_t> request;
  BuildEnsureTopicRequest("t", 2, request);
  Call(request);

  const std::vector<uint8_t> a = Bytes("aa"), b = Bytes("bbb");
  const std::vector<broker::ProduceView> records = {View(a, 1, 10),
                                                    View(b, 2, 20)};
  request.clear();
  BuildProduceRequest("t", records, request);
  WireReader produce_reply = Call(request);
  EXPECT_EQ(produce_reply.TakeU32(), 2u);

  // Both records landed in the partitions the shared hash names.
  size_t found = 0;
  for (size_t p = 0; p < 2; ++p) {
    request.clear();
    BuildPollRequest("t", p, 0, 16, 1 << 20, request);
    WireReader reply = Call(request);
    for (const PolledRecord& record : TakePolled(reply)) {
      if (record.key == 1) {
        EXPECT_EQ(record.timestamp_ms, 10);
        EXPECT_EQ(record.payload, a);
        EXPECT_EQ(broker::PartitionForKey(1, 2), p);
      } else {
        EXPECT_EQ(record.key, 2u);
        EXPECT_EQ(record.timestamp_ms, 20);
        EXPECT_EQ(record.payload, b);
        EXPECT_EQ(broker::PartitionForKey(2, 2), p);
      }
      EXPECT_EQ(record.offset, 0u);
      ++found;
    }
  }
  EXPECT_EQ(found, 2u);
}

TEST_F(WireProtocolTest, PollIsByteBudgetedButAlwaysMakesProgress) {
  std::vector<uint8_t> request;
  BuildEnsureTopicRequest("t", 1, request);
  Call(request);
  const std::vector<uint8_t> big(1000, 0x55);
  const std::vector<broker::ProduceView> records = {View(big, 0), View(big, 0),
                                                    View(big, 0)};
  request.clear();
  BuildProduceRequest("t", records, request);
  Call(request);

  // Budget below one record: exactly one is packed anyway.
  request.clear();
  BuildPollRequest("t", 0, 0, 16, /*max_bytes=*/10, request);
  WireReader tight = Call(request);
  EXPECT_EQ(TakePolled(tight).size(), 1u);

  // Budget for two records: the third is deferred to the next round-trip.
  request.clear();
  BuildPollRequest("t", 0, 0, 16, /*max_bytes=*/2000, request);
  WireReader two = Call(request);
  EXPECT_EQ(TakePolled(two).size(), 2u);
}

TEST_F(WireProtocolTest, PollReadsNoMoreThanItPacks) {
  std::vector<uint8_t> request;
  BuildEnsureTopicRequest("t", 1, request);
  Call(request);
  const std::vector<uint8_t> big(1000, 0x55);
  const std::vector<broker::ProduceView> records = {View(big, 0), View(big, 0),
                                                    View(big, 0)};
  request.clear();
  BuildProduceRequest("t", records, request);
  Call(request);

  // An uncapped record count cannot make the server read past the byte
  // budget: the topic hands out, and counts, only the record it packs.
  request.clear();
  BuildPollRequest("t", 0, 0, UINT32_MAX, /*max_bytes=*/10, request);
  WireReader reply = Call(request);
  EXPECT_EQ(TakePolled(reply).size(), 1u);
  const broker::TopicMetrics metrics = broker_.GetTopic("t").metrics();
  EXPECT_EQ(metrics.records_out, 1u);
  EXPECT_EQ(metrics.bytes_out, 1000u);
}

TEST_F(WireProtocolTest, RequestAndResponseBytesAreGolden) {
  // Lane-shaped records: equally long, keyed by their first 8 bytes, one
  // timestamp. The batch keeps no key, length or timestamp column.
  const std::vector<uint8_t> share_a = {1, 2, 3, 4, 5, 6, 7, 8, 'a', 'b'};
  const std::vector<uint8_t> share_b = {9, 0, 0, 0, 0, 0, 0, 0, 'c', 'd'};
  const std::vector<broker::ProduceView> lane = {
      View(share_a, 0x0807060504030201ull, 7), View(share_b, 9, 7)};
  std::vector<uint8_t> lane_request;
  BuildProduceRequest("t", lane, lane_request);
  const std::vector<uint8_t> lane_batch = {
      0xB2, 0x03,                    // magic; fixed width, key in payload
      2,    0,    0, 0,              // count
      7,    0,    0, 0, 0, 0, 0, 0,  // base ts
      10,   0,    0, 0,              // width
      1,    2,    3, 4, 5, 6, 7, 8, 'a', 'b',  // payload block
      9,    0,    0, 0, 0, 0, 0, 0, 'c', 'd'};
  std::vector<uint8_t> want = {2, 1, 0, 't'};  // op, "t"
  want.insert(want.end(), lane_batch.begin(), lane_batch.end());
  EXPECT_EQ(lane_request, want);

  // Mixed records: every column is kept, timestamps as zigzag deltas from
  // the first (-2, then +12 -> 24).
  const std::vector<uint8_t> ab = Bytes("ab");
  const std::vector<uint8_t> empty;
  const std::vector<broker::ProduceView> mixed = {
      View(ab, 0x0102030405060708ull, -2), View(empty, 9, 10)};
  std::vector<uint8_t> mixed_request;
  BuildProduceRequest("t", mixed, mixed_request);
  const std::vector<uint8_t> mixed_batch = {
      0xB2, 0x04,                                      // magic; ts deltas
      2,    0,    0,    0,                             // count
      0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // base ts -2
      8,    7,    6,    5,    4,    3,    2,    1,     // keys
      9,    0,    0,    0,    0,    0,    0,    0,
      2,    0,    0,    0,    0,    0,    0,    0,     // lengths 2, 0
      0,    24,                                      // ts deltas
      'a',  'b'};                                    // payload block
  want = {2, 1, 0, 't'};
  want.insert(want.end(), mixed_batch.begin(), mixed_batch.end());
  EXPECT_EQ(mixed_request, want);

  // A poll answers with the base offset and the same batches.
  std::vector<uint8_t> setup;
  BuildEnsureTopicRequest("t", 1, setup);
  Call(setup);
  Call(lane_request);
  Call(mixed_request);
  std::vector<uint8_t> poll;
  BuildPollRequest("t", 0, 0, 2, 1 << 20, poll);
  Call(poll);
  want = {0, 0, 0, 0, 0, 0, 0, 0, 0};  // ok, base offset 0
  want.insert(want.end(), lane_batch.begin(), lane_batch.end());
  EXPECT_EQ(response_, want);
  poll.clear();
  BuildPollRequest("t", 0, 2, 16, 1 << 20, poll);
  Call(poll);
  want = {0, 2, 0, 0, 0, 0, 0, 0, 0};  // ok, base offset 2
  want.insert(want.end(), mixed_batch.begin(), mixed_batch.end());
  EXPECT_EQ(response_, want);
}

TEST_F(WireProtocolTest, ResponsesFramedInPlaceMatchEncodeFrame) {
  std::vector<uint8_t> request;
  BuildEnsureTopicRequest("t", 1, request);
  Call(request);
  const std::vector<uint8_t> a = Bytes("aa"), b = Bytes("bbb");
  const std::vector<broker::ProduceView> records = {View(a, 1, 10),
                                                    View(b, 2, 20)};
  request.clear();
  BuildProduceRequest("t", records, request);
  Call(request);
  std::vector<uint8_t> poll;
  BuildPollRequest("t", 0, 0, 16, 1 << 20, poll);
  std::vector<uint8_t> error;
  BuildTopicMetaRequest("missing", error);

  // The server's path: each response is appended behind the ones still
  // queued for the peer and sealed in place. An error replaces only its
  // own bytes, so the poll responses around it survive intact.
  std::vector<uint8_t> in_place = Bytes("queued");
  std::vector<uint8_t> expected = in_place;
  for (const std::vector<uint8_t>* req : {&poll, &error, &poll}) {
    std::vector<uint8_t> body;
    HandleRequest(&broker_, control_, *req, body);
    EncodeFrame(body, expected);
    const size_t start = BeginFrame(in_place);
    HandleRequest(&broker_, control_, *req, in_place);
    SealFrame(in_place, start);
  }
  EXPECT_EQ(in_place, expected);
  // Ok, error, ok — each frame whole and in order behind the queued bytes.
  std::span<const uint8_t> rest(in_place.data() + 6, in_place.size() - 6);
  for (const uint8_t status : {kWireOk, kWireError, kWireOk}) {
    const FrameDecodeResult frame = TryDecodeFrame(rest);
    ASSERT_EQ(frame.status, FrameStatus::kFrame);
    ASSERT_FALSE(frame.payload.empty());
    EXPECT_EQ(frame.payload[0], status);
    rest = rest.subspan(frame.consumed);
  }
  EXPECT_TRUE(rest.empty());
}

TEST_F(WireProtocolTest, ErrorsComeBackAsWireErrors) {
  std::vector<uint8_t> request;
  BuildTopicMetaRequest("missing", request);
  EXPECT_THROW(Call(request), std::runtime_error);

  request.clear();
  request.push_back(0xEE);  // unknown opcode
  EXPECT_THROW(Call(request), std::runtime_error);

  // Control verb without a registered handler.
  request.clear();
  BuildControlRequest("ping", {}, request);
  EXPECT_THROW(Call(request), std::runtime_error);
}

TEST_F(WireProtocolTest, ProduceCountBeyondTheBodyIsRejected) {
  std::vector<uint8_t> request;
  BuildEnsureTopicRequest("t", 1, request);
  Call(request);
  // One record on the wire, but the batch count claims 2^32 - 1 of them:
  // the server must refuse before sizing anything by that count.
  const std::vector<uint8_t> a = Bytes("aa");
  const std::vector<broker::ProduceView> records = {View(a, 1, 10)};
  request.clear();
  BuildProduceRequest("t", records, request);
  // opcode, u16 length, "t", batch magic and attributes
  const size_t count_pos = 1 + 2 + 1 + 2;
  for (size_t i = 0; i < 4; ++i) {
    request[count_pos + i] = 0xFF;
  }
  try {
    Call(request);
    FAIL() << "expected a wire error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("count 4294967295"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(broker_.GetTopic("t").EndOffset(0), 0u);
}

TEST_F(WireProtocolTest, PartitionCountAboveTheCapIsRejected) {
  std::vector<uint8_t> request;
  BuildEnsureTopicRequest("t", 1025, request);  // cap is 1024
  try {
    Call(request);
    FAIL() << "expected a wire error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("partition count 1025"),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(broker_.HasTopic("t"));
  // The cap itself is still served.
  request.clear();
  BuildEnsureTopicRequest("t", 1024, request);
  Call(request);
  EXPECT_EQ(broker_.GetTopic("t").num_partitions(), 1024u);
}

TEST_F(WireProtocolTest, ControlVerbDispatches) {
  control_ = [](const std::string& verb, std::span<const uint8_t> payload) {
    std::vector<uint8_t> reply;
    PutString(verb + "/" + std::to_string(payload.size()), reply);
    return reply;
  };
  std::vector<uint8_t> request;
  const std::vector<uint8_t> payload = Bytes("abc");
  BuildControlRequest("echo", payload, request);
  WireReader reply = Call(request);
  WireReader body(reply.TakeBytes());
  EXPECT_EQ(body.TakeString(), "echo/3");
}

// Twenty one-byte records keyed 0..19 into a fresh 2-partition topic "t";
// returns each partition's end offset.
std::vector<uint64_t> FillTwoPartitions(broker::Broker& broker) {
  InProcessBus bus(broker);
  bus.EnsureTopic("t", 2);
  const std::vector<uint8_t> payload = Bytes("r");
  std::vector<broker::ProduceView> records;
  for (uint64_t key = 0; key < 20; ++key) {
    records.push_back(View(payload, key));
  }
  bus.Produce("t", records);
  return {bus.EndOffset("t", 0), bus.EndOffset("t", 1)};
}

uint64_t Retained(broker::Broker& broker, const std::string& topic) {
  return broker.GetTopic(topic).slab_stats().retained_records;
}

TEST_F(WireProtocolTest, ReleaseRequestBytesAreGoldenAndFreeBelowTheOffsets) {
  const std::vector<uint64_t> below = {3, 0x0102030405060708ull};
  std::vector<uint8_t> request;
  BuildReleaseRequest("t", below, request);
  const std::vector<uint8_t> want_request = {
      7, 1, 0, 't', 2, 0, 0, 0,  // op, "t", offset count
      3, 0, 0, 0, 0, 0, 0, 0,    // partition 0
      8, 7, 6, 5, 4, 3, 2, 1};   // partition 1: past the end, clamped
  EXPECT_EQ(request, want_request);

  const std::vector<uint64_t> ends = FillTwoPartitions(broker_);
  ASSERT_GT(ends[0], 3u);
  Call(request);
  EXPECT_EQ(response_, std::vector<uint8_t>{kWireOk});
  EXPECT_EQ(Retained(broker_, "t"), ends[0] - 3);
  // Offsets are unchanged, and a read below the released offset starts
  // at it.
  EXPECT_EQ(broker_.GetTopic("t").EndOffset(0), ends[0]);
  EXPECT_EQ(broker_.GetTopic("t").EndOffset(1), ends[1]);
  std::vector<uint8_t> poll;
  BuildPollRequest("t", 0, 0, 16, 1 << 20, poll);
  WireReader reply = Call(poll);
  const std::vector<PolledRecord> polled = TakePolled(reply);
  ASSERT_EQ(polled.size(), ends[0] - 3);
  EXPECT_EQ(polled.front().offset, 3u);
}

TEST_F(WireProtocolTest, ReleaseRefusalsAreErrorResponsesAndServingGoesOn) {
  const std::vector<uint64_t> ends = FillTwoPartitions(broker_);
  std::vector<uint8_t> unknown;
  BuildReleaseRequest("missing", std::vector<uint64_t>{9, 9}, unknown);
  std::vector<uint8_t> wrong_count;
  BuildReleaseRequest("t", std::vector<uint64_t>{9}, wrong_count);
  std::vector<uint8_t> truncated;
  BuildReleaseRequest("t", std::vector<uint64_t>{9, 9}, truncated);
  truncated.pop_back();
  std::vector<uint8_t> release;
  BuildReleaseRequest("t", ends, release);

  // One stream of responses, as a peer's send queue holds them: each
  // refusal replaces only its own bytes, and the release behind them is
  // served.
  std::vector<uint8_t> stream;
  for (const auto& [request, want] :
       std::vector<std::pair<const std::vector<uint8_t>*, std::string>>{
           {&unknown, "no topic 'missing'"},
           {&wrong_count, "1 offsets for topic 't' of 2 partitions"},
           {&truncated, "truncated"}}) {
    const size_t start = stream.size();
    EXPECT_EQ(HandleRequest(&broker_, control_, *request, stream),
              static_cast<uint8_t>(WireOp::kRelease));
    WireReader reader(std::span<const uint8_t>(stream).subspan(start));
    EXPECT_EQ(reader.TakeU8(), kWireError);
    const std::string message = reader.TakeString();
    EXPECT_NE(message.find(want), std::string::npos) << message;
    EXPECT_TRUE(reader.AtEnd());
    EXPECT_EQ(Retained(broker_, "t"), 20u) << "a refusal released records";
  }
  const size_t start = stream.size();
  HandleRequest(&broker_, control_, release, stream);
  EXPECT_EQ(stream.size(), start + 1);
  EXPECT_EQ(stream.back(), kWireOk);
  EXPECT_EQ(Retained(broker_, "t"), 0u);
}

// --- BusConsumer over the in-process backend ---

class BusConsumerTest : public ::testing::Test {
 protected:
  BusConsumerTest() : bus_(broker_) { bus_.EnsureTopic("t", 2); }

  void Produce(uint64_t key, const std::string& payload) {
    const std::vector<uint8_t> bytes = Bytes(payload);
    const broker::ProduceView view{key, bytes, 0};
    bus_.Produce("t", std::span<const broker::ProduceView>(&view, 1));
  }

  broker::Broker broker_;
  InProcessBus bus_;
};

TEST_F(BusConsumerTest, PollIntoDrainsAllPartitions) {
  for (uint64_t key = 0; key < 20; ++key) {
    Produce(key, "r" + std::to_string(key));
  }
  BusConsumer consumer(bus_, "t");
  EXPECT_EQ(consumer.num_partitions(), 2u);
  std::vector<broker::RecordView> out;
  size_t total = 0;
  while (size_t n = consumer.PollInto(7, out)) {
    total += n;
  }
  EXPECT_EQ(total, 20u);
  EXPECT_EQ(consumer.consumed(), 20u);
  EXPECT_TRUE(consumer.CaughtUp());
}

TEST_F(BusConsumerTest, ReleaseConsumedFreesWhatWasPolled) {
  for (uint64_t key = 0; key < 20; ++key) {
    Produce(key, "r" + std::to_string(key));
  }
  BusConsumer consumer(bus_, "t");
  std::vector<broker::RecordView> out;
  ASSERT_EQ(consumer.PollInto(7, out), 7u);
  consumer.ReleaseConsumed();
  EXPECT_EQ(Retained(broker_, "t"), 13u);
  while (consumer.PollInto(7, out) != 0) {
  }
  consumer.ReleaseConsumed();
  EXPECT_EQ(Retained(broker_, "t"), 0u);
  EXPECT_EQ(consumer.consumed(), 20u);
}

TEST(InProcessBusTest, ReleaseNeedsOneOffsetPerPartition) {
  broker::Broker broker;
  const std::vector<uint64_t> ends = FillTwoPartitions(broker);
  InProcessBus bus(broker);
  EXPECT_THROW(bus.Release("t", std::vector<uint64_t>{ends[0]}),
               std::invalid_argument);
  EXPECT_THROW(bus.Release("t", std::vector<uint64_t>{0, 0, 0}),
               std::invalid_argument);
  EXPECT_THROW(bus.Release("missing", ends), std::invalid_argument);
  EXPECT_EQ(Retained(broker, "t"), 20u);
  bus.Release("t", std::vector<uint64_t>{0, ends[1]});
  EXPECT_EQ(Retained(broker, "t"), ends[0]);
}

TEST(InProcessBusTest, EnsureTopicMismatchThrows) {
  broker::Broker broker;
  InProcessBus bus(broker);
  bus.EnsureTopic("t", 2);
  bus.EnsureTopic("t", 2);  // attach is fine
  EXPECT_THROW(bus.EnsureTopic("t", 3), std::invalid_argument);
}

TEST(TopicRouterBusTest, RoutesByLongestPrefix) {
  broker::Broker broker_a, broker_b;
  InProcessBus bus_a(broker_a), bus_b(broker_b);
  TopicRouterBus router;
  router.AddRoute("proxy0.", bus_a);
  router.AddRoute("proxy0.q7.", bus_b);  // longer prefix wins for q7 lanes

  router.EnsureTopic("proxy0.out", 1);
  router.EnsureTopic("proxy0.q7.out", 1);
  const std::vector<uint8_t> payload = Bytes("x");
  const broker::ProduceView view{0, payload, 0};
  router.Produce("proxy0.out", std::span<const broker::ProduceView>(&view, 1));
  router.Produce("proxy0.q7.out",
                 std::span<const broker::ProduceView>(&view, 1));

  // Each record landed only on its routed backend.
  EXPECT_EQ(bus_a.EndOffset("proxy0.out", 0), 1u);
  EXPECT_EQ(bus_b.EndOffset("proxy0.q7.out", 0), 1u);
  EXPECT_THROW(broker_a.GetTopic("proxy0.q7.out"), std::invalid_argument);
  EXPECT_THROW(broker_b.GetTopic("proxy0.out"), std::invalid_argument);

  // Reads and releases route the same way.
  std::vector<broker::RecordView> out;
  EXPECT_EQ(router.Poll("proxy0.q7.out", 0, 0, 16, out), 1u);
  EXPECT_EQ(router.NumPartitions("proxy0.out"), 1u);
  router.Release("proxy0.q7.out", std::vector<uint64_t>{1});
  EXPECT_EQ(Retained(broker_b, "proxy0.q7.out"), 0u);
  EXPECT_EQ(Retained(broker_a, "proxy0.out"), 1u);
  EXPECT_THROW(router.Produce("unrouted.topic", {}), std::invalid_argument);
  EXPECT_THROW(router.Release("unrouted.topic", std::vector<uint64_t>{0}),
               std::invalid_argument);
}

// --- result_wire: the serialization the socket e2e comparison rides on ---

TEST(ResultWireTest, RoundTripsEveryFieldBitExactly) {
  aggregator::WindowedResult result;
  result.query_id = 42;
  result.window = engine::Window{1000, 2000};
  result.result.participants = 17;
  result.result.population = 600;
  result.result.lost_to_faults = 3;
  result.result.confidence = 0.95;
  result.result.sampling_fraction = 0.3125;  // exact in binary
  core::BucketEstimate bucket;
  bucket.estimate.value = 123.4567890123;
  bucket.estimate.error = 0.1 + 0.2;  // a value with messy low bits
  bucket.estimate.confidence = 0.99;
  bucket.estimate.sample_size = 550;
  bucket.randomized_count = 275.25;
  result.result.buckets = {bucket, bucket};

  const std::vector<uint8_t> wire =
      deploy::SerializeResults(std::vector<aggregator::WindowedResult>{result});
  const std::vector<aggregator::WindowedResult> back =
      deploy::DeserializeResults(wire);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].query_id, 42u);
  EXPECT_EQ(back[0].window, (engine::Window{1000, 2000}));
  EXPECT_EQ(back[0].result.participants, 17u);
  EXPECT_EQ(back[0].result.lost_to_faults, 3u);
  ASSERT_EQ(back[0].result.buckets.size(), 2u);
  // Bit-exact double round-trip, not approximate.
  EXPECT_EQ(std::bit_cast<uint64_t>(back[0].result.buckets[0].estimate.error),
            std::bit_cast<uint64_t>(bucket.estimate.error));
  EXPECT_EQ(back[0].result.buckets[1].estimate.value, bucket.estimate.value);
  // Re-serialization is byte-stable (the comparison CI relies on this).
  EXPECT_EQ(deploy::SerializeResults(back), wire);

  // Trailing garbage is rejected.
  std::vector<uint8_t> trailing = wire;
  trailing.push_back(0);
  EXPECT_THROW(deploy::DeserializeResults(trailing), std::invalid_argument);

  // A result or bucket count the bytes behind it cannot hold is refused by
  // name before anything is sized by it.
  const auto refusal = [](const std::vector<uint8_t>& bytes) {
    try {
      deploy::DeserializeResults(bytes);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  std::vector<uint8_t> many_results;
  PutU32(100000, many_results);
  EXPECT_NE(refusal(many_results).find("result count 100000"),
            std::string::npos)
      << refusal(many_results);
  // One result of two buckets is 148 bytes: room for two bare results,
  // not three.
  std::vector<uint8_t> three_results = wire;
  three_results[0] = 3;
  EXPECT_NE(refusal(three_results).find("result count 3"), std::string::npos)
      << refusal(three_results);
  std::vector<uint8_t> many_buckets = wire;
  const size_t bucket_count_at = 4 + 8 * 8;  // result count, eight u64s
  ASSERT_EQ(many_buckets[bucket_count_at], 2u);
  many_buckets[bucket_count_at] = 3;  // three buckets claimed, two present
  EXPECT_NE(refusal(many_buckets).find("bucket count 3"), std::string::npos)
      << refusal(many_buckets);
}

}  // namespace
}  // namespace privapprox::transport
