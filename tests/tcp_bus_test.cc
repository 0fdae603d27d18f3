// The socket transport over real loopback TCP: request/response round
// trips, frames arriving one byte per wakeup, peers dying mid-frame,
// corrupt frames being quarantined, control verbs, and client re-dials.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "broker/broker.h"
#include "common/byte_order.h"
#include "metrics/metrics.h"
#include "storage/record_batch.h"
#include "transport/frame.h"
#include "transport/inproc_bus.h"
#include "transport/message_bus.h"
#include "transport/tcp_bus.h"
#include "transport/wire.h"

namespace privapprox::transport {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

// A raw blocking loopback connection for byte-level protocol abuse.
class RawConn {
 public:
  // Wraps the accepted side of a RawListener connection.
  struct Accepted {
    int fd;
  };
  explicit RawConn(Accepted accepted) : fd_(accepted.fd) {
    EXPECT_GE(fd_, 0);
    BoundReads();
  }
  explicit RawConn(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    BoundReads();
  }
  ~RawConn() { Close(); }

  void Close() {
    if (fd_ >= 0) {
      close(fd_);
      fd_ = -1;
    }
  }

  void Send(std::span<const uint8_t> bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = write(fd_, bytes.data() + off, bytes.size() - off);
      ASSERT_GT(n, 0);
      off += static_cast<size_t>(n);
    }
  }

  // Reads until `n` bytes or EOF; returns what arrived.
  std::vector<uint8_t> Recv(size_t n) {
    std::vector<uint8_t> out;
    out.reserve(n);
    while (out.size() < n) {
      uint8_t buf[4096];
      const ssize_t got =
          read(fd_, buf, std::min(sizeof(buf), n - out.size()));
      if (got <= 0) {
        break;
      }
      out.insert(out.end(), buf, buf + got);
    }
    return out;
  }

  // Reads one whole frame, header included, exactly as it arrived.
  std::vector<uint8_t> RecvFrame() {
    std::vector<uint8_t> frame = Recv(kFrameHeaderBytes);
    if (frame.size() == kFrameHeaderBytes) {
      const std::vector<uint8_t> payload = Recv(LoadLe<uint32_t>(frame.data()));
      frame.insert(frame.end(), payload.begin(), payload.end());
    }
    return frame;
  }

  // True once the peer has closed (read returns 0), polling briefly.
  bool PeerClosed() {
    for (int i = 0; i < 200; ++i) {
      uint8_t byte = 0;
      const ssize_t got = recv(fd_, &byte, 1, MSG_DONTWAIT);
      if (got == 0) {
        return true;
      }
      if (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        return true;  // reset also counts as closed
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

 private:
  // A missing or truncated reply ends Recv short after 5 s instead of
  // hanging the test.
  void BoundReads() {
    timeval tv{};
    tv.tv_sec = 5;
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  int fd_ = -1;
};

// A loopback listener for a fake server that records what a client sends.
class RawListener {
 public:
  RawListener() {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    EXPECT_EQ(listen(fd_, 1), 0);
    socklen_t len = sizeof(addr);
    getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  }
  ~RawListener() { close(fd_); }

  uint16_t port() const { return port_; }
  RawConn::Accepted Accept() { return {accept(fd_, nullptr, nullptr)}; }

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

std::vector<uint8_t> Framed(const std::vector<uint8_t>& body) {
  std::vector<uint8_t> frame;
  EncodeFrame(body, frame);
  return frame;
}

class TcpBusTest : public ::testing::Test {
 protected:
  void StartServer(ControlHandler control = {}) {
    TcpBusServerConfig config;
    config.counters.accepts =
        &registry_.GetCounter("accepts", "connections accepted");
    config.counters.disconnects =
        &registry_.GetCounter("disconnects", "peers hung up");
    config.counters.protocol_errors =
        &registry_.GetCounter("protocol_errors", "quarantined");
    config.counters.frames_in = &registry_.GetCounter("frames_in", "in");
    config.counters.frames_out = &registry_.GetCounter("frames_out", "out");
    server_ = std::make_unique<TcpBusServer>(config, &broker_,
                                             std::move(control));
    server_->Start();
  }

  std::unique_ptr<TcpBusClient> Dial() {
    TcpBusClientConfig config;
    config.port = server_->port();
    config.counters.reconnects =
        &registry_.GetCounter("reconnects", "re-dials");
    return std::make_unique<TcpBusClient>(config);
  }

  uint64_t Counter(const std::string& name) {
    return registry_.GetCounter(name, "").Value();
  }

  // Spins until `counter` reaches `at_least` (the event loop runs on its
  // own thread) or the deadline passes.
  void AwaitCounter(const std::string& name, uint64_t at_least) {
    for (int i = 0; i < 400 && Counter(name) < at_least; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_GE(Counter(name), at_least);
  }

  metrics::Registry registry_;
  broker::Broker broker_;
  std::unique_ptr<TcpBusServer> server_;
};

TEST_F(TcpBusTest, ProduceAndPollRoundTrip) {
  StartServer();
  auto client = Dial();
  client->EnsureTopic("t", 2);
  EXPECT_EQ(client->NumPartitions("t"), 2u);

  std::vector<std::vector<uint8_t>> payloads;
  std::vector<broker::ProduceView> records;
  for (uint64_t key = 0; key < 50; ++key) {
    payloads.push_back(Bytes("record-" + std::to_string(key)));
    records.push_back(broker::ProduceView{key, payloads.back(),
                                          static_cast<int64_t>(key * 10)});
  }
  client->Produce("t", records);

  BusConsumer consumer(*client, "t");
  std::vector<broker::RecordView> out;
  size_t total = 0;
  while (size_t n = consumer.PollInto(16, out)) {
    total += n;
  }
  EXPECT_EQ(total, 50u);
  // Views remain valid until ReleasePolled (client-owned slabs): check one
  // record's bytes after further RPCs recycled the receive buffers.
  client->EndOffset("t", 0);
  bool found = false;
  for (const broker::RecordView& view : out) {
    if (view.key == 7) {
      EXPECT_EQ(std::string(view.payload, view.payload + view.payload_len),
                "record-7");
      EXPECT_EQ(view.timestamp_ms, 70);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(TcpBusTest, ReleasePolledRecyclesPayloadSlabs) {
  // After ReleasePolled the next round's payloads land in the same slab
  // memory, so a client that polls forever stays the size of one round.
  StartServer();
  auto client = Dial();
  client->EnsureTopic("t", 1);
  BusConsumer consumer(*client, "t");
  std::vector<const uint8_t*> first_round;
  for (uint8_t round = 1; round <= 3; ++round) {
    // ~600 KB per round: more than two client slab chunks.
    const std::vector<uint8_t> payload(1000, round);
    const std::vector<broker::ProduceView> records(
        600, broker::ProduceView{round, payload, 0});
    client->Produce("t", records);
    std::vector<broker::RecordView> out;
    while (consumer.PollInto(1000, out) != 0) {
    }
    ASSERT_EQ(out.size(), records.size());
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i].payload_len, payload.size());
      EXPECT_EQ(out[i].payload[0], round);
      EXPECT_EQ(out[i].payload[payload.size() - 1], round);
      if (round == 1) {
        first_round.push_back(out[i].payload);
      } else {
        EXPECT_EQ(out[i].payload, first_round[i]) << "record " << i;
      }
    }
    client->ReleasePolled();
  }
}

TEST_F(TcpBusTest, ReleaseFreesServerRecordsAndRefusalsKeepTheConnection) {
  StartServer();
  auto client = Dial();
  client->EnsureTopic("t", 2);
  const std::vector<uint8_t> payload = Bytes("record");
  std::vector<broker::ProduceView> records;
  for (uint64_t key = 0; key < 50; ++key) {
    records.push_back(broker::ProduceView{key, payload, 0});
  }
  client->Produce("t", records);
  BusConsumer consumer(*client, "t");
  std::vector<broker::RecordView> out;
  while (consumer.PollInto(16, out) != 0) {
  }
  ASSERT_EQ(out.size(), 50u);

  // The consumer's release frees the records in the server's broker; the
  // offsets stay where they were.
  consumer.ReleaseConsumed();
  EXPECT_EQ(broker_.GetTopic("t").slab_stats().retained_records, 0u);
  EXPECT_EQ(client->EndOffset("t", 0) + client->EndOffset("t", 1), 50u);

  // Refusals come back as remote errors on the same connection.
  EXPECT_THROW(client->Release("missing", std::vector<uint64_t>{0, 0}),
               std::runtime_error);
  EXPECT_THROW(client->Release("t", std::vector<uint64_t>{0}),
               std::runtime_error);
  // So does a truncated request, which a raw connection can send.
  std::vector<uint8_t> truncated;
  BuildReleaseRequest("t", std::vector<uint64_t>{0, 0}, truncated);
  truncated.pop_back();
  RawConn conn(server_->port());
  conn.Send(Framed(truncated));
  const std::vector<uint8_t> refused = conn.RecvFrame();
  ASSERT_GT(refused.size(), kFrameHeaderBytes);
  EXPECT_EQ(refused[kFrameHeaderBytes], kWireError);
  std::vector<uint8_t> meta;
  BuildTopicMetaRequest("t", meta);
  conn.Send(Framed(meta));
  const std::vector<uint8_t> served = conn.RecvFrame();
  ASSERT_GT(served.size(), kFrameHeaderBytes);
  EXPECT_EQ(served[kFrameHeaderBytes], kWireOk);

  EXPECT_EQ(client->NumPartitions("t"), 2u);
  EXPECT_EQ(Counter("reconnects"), 0u);
  EXPECT_EQ(Counter("protocol_errors"), 0u);
  EXPECT_EQ(Counter("disconnects"), 0u);
}

// A lane share costs its own 22 bytes on the wire: one Produce of N shares
// is the frame header, the opcode, the topic, one batch header with its
// width, and the N payloads, nothing per record.
TEST_F(TcpBusTest, LaneSharesCostTheirOwnBytesOnTheWire) {
  StartServer();
  TcpBusClientConfig config;
  config.port = server_->port();
  config.counters.bytes_out = &registry_.GetCounter("bytes_out", "sent");
  TcpBusClient client(config);
  const std::string topic = "proxy0.q1.in";
  client.EnsureTopic(topic, 4);

  constexpr size_t kShares = 300;
  constexpr size_t kShareBytes = 22;  // 8 B MID + 12 B header + 2 B answer
  std::vector<uint8_t> shares(kShares * kShareBytes);
  std::vector<broker::ProduceView> records;
  for (size_t i = 0; i < kShares; ++i) {
    uint8_t* share = shares.data() + i * kShareBytes;
    const uint64_t mid = 0x9E3779B97F4A7C15ull * (i + 1);
    StoreLe<uint64_t>(share, mid);
    share[8] = static_cast<uint8_t>(i);
    records.push_back(broker::ProduceView{
        mid, std::span<const uint8_t>(share, kShareBytes), 5000});
  }
  const uint64_t before = Counter("bytes_out");
  client.Produce(topic, records);
  EXPECT_EQ(Counter("bytes_out") - before,
            kFrameHeaderBytes + 1 + 2 + topic.size() +
                storage::kRecordBatchHeaderBytes + 4 + kShareBytes * kShares);

  // And they come back whole, at their natural width.
  BusConsumer consumer(client, topic);
  std::vector<broker::RecordView> out;
  while (consumer.PollInto(1000, out) != 0) {
  }
  ASSERT_EQ(out.size(), kShares);
  for (const broker::RecordView& view : out) {
    EXPECT_EQ(view.payload_len, kShareBytes);
    EXPECT_EQ(view.key, LoadLe<uint64_t>(view.payload));
    EXPECT_EQ(view.timestamp_ms, 5000);
  }
}

// The transport bounds a request, not its caller: a 5,000-record Produce
// goes out as requests of at most kMaxProduceRecords, in order, and the
// server's topic ends up exactly as one in-process append of the batch.
TEST_F(TcpBusTest, LargeProduceGoesOutInRequestsOfAtMost2048Records) {
  StartServer();
  TcpBusClientConfig config;
  config.port = server_->port();
  config.counters.frames_out = &registry_.GetCounter("client_frames_out", "");
  TcpBusClient client(config);
  client.EnsureTopic("t", 4);

  constexpr size_t kRecords = 5000;
  std::vector<uint8_t> payloads(kRecords * 12);
  std::vector<broker::ProduceView> records;
  for (size_t i = 0; i < kRecords; ++i) {
    uint8_t* payload = payloads.data() + i * 12;
    StoreLe<uint64_t>(payload, i * 0x9E3779B97F4A7C15ull);
    StoreLe<uint32_t>(payload + 8, static_cast<uint32_t>(i));
    records.push_back(broker::ProduceView{
        i % 97, std::span<const uint8_t>(payload, 12),
        static_cast<int64_t>(i / 100)});
  }
  const uint64_t before = Counter("client_frames_out");
  client.Produce("t", records);
  EXPECT_EQ(Counter("client_frames_out") - before, 3u);

  broker::Broker reference;
  reference.CreateTopic("t", 4);
  InProcessBus reference_bus(reference);
  reference_bus.Produce("t", records);
  InProcessBus served(broker_);
  for (size_t p = 0; p < 4; ++p) {
    std::vector<broker::RecordView> got;
    std::vector<broker::RecordView> want;
    served.Poll("t", p, 0, kRecords, got);
    reference_bus.Poll("t", p, 0, kRecords, want);
    ASSERT_EQ(got.size(), want.size()) << "partition " << p;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].offset, want[i].offset);
      EXPECT_EQ(got[i].key, want[i].key);
      EXPECT_EQ(got[i].timestamp_ms, want[i].timestamp_ms);
      EXPECT_TRUE(std::ranges::equal(got[i].bytes(), want[i].bytes()));
    }
  }
}

// A Produce whose batch claims more than its body holds is refused with an
// error response, and the same connection goes on serving.
TEST_F(TcpBusTest, HostileProduceRequestIsRefusedAndTheConnectionServesOn) {
  StartServer();
  broker_.EnsureTopic("t", 1);
  const std::vector<uint8_t> payload = Bytes("record");
  const std::vector<broker::ProduceView> records = {
      broker::ProduceView{1, payload, 0}, broker::ProduceView{2, payload, 0}};
  std::vector<uint8_t> hostile;
  BuildProduceRequest("t", records, hostile);
  const size_t count_at = 1 + 2 + 1 + 2;  // op, "t", magic, attributes
  StoreLe<uint32_t>(hostile.data() + count_at, 1u << 30);
  RawConn conn(server_->port());
  conn.Send(Framed(hostile));
  const std::vector<uint8_t> refused = conn.RecvFrame();
  ASSERT_GT(refused.size(), kFrameHeaderBytes);
  EXPECT_EQ(refused[kFrameHeaderBytes], kWireError);
  std::vector<uint8_t> produce;
  BuildProduceRequest("t", records, produce);
  conn.Send(Framed(produce));
  const std::vector<uint8_t> served = conn.RecvFrame();
  ASSERT_GT(served.size(), kFrameHeaderBytes);
  EXPECT_EQ(served[kFrameHeaderBytes], kWireOk);
  EXPECT_EQ(broker_.GetTopic("t").EndOffset(0), 2u);
  EXPECT_EQ(Counter("protocol_errors"), 0u);
}

TEST_F(TcpBusTest, LargePayloadsSurvivePartialSocketWrites) {
  StartServer();
  auto client = Dial();
  client->EnsureTopic("big", 1);
  // ~6 MiB of records: several times any default socket buffer, so both
  // directions exercise partial writes resumed across epoll wakeups.
  const std::vector<uint8_t> blob(64 * 1024, 0x5A);
  std::vector<broker::ProduceView> records;
  for (uint64_t key = 0; key < 96; ++key) {
    records.push_back(broker::ProduceView{key, blob, 0});
  }
  client->Produce("big", records);
  EXPECT_EQ(client->EndOffset("big", 0), 96u);

  std::vector<broker::RecordView> out;
  uint64_t offset = 0;
  while (offset < 96) {
    const size_t n = client->Poll("big", 0, offset, 96, out);
    ASSERT_GT(n, 0u);
    offset += n;
  }
  ASSERT_EQ(out.size(), 96u);
  for (const broker::RecordView& view : out) {
    ASSERT_EQ(view.payload_len, blob.size());
    EXPECT_EQ(view.payload[blob.size() - 1], 0x5A);
  }
}

TEST_F(TcpBusTest, FrameDribbledBytewiseStillParses) {
  StartServer();
  std::vector<uint8_t> request;
  BuildEnsureTopicRequest("dribble", 1, request);
  std::vector<uint8_t> framed;
  EncodeFrame(request, framed);

  RawConn conn(server_->port());
  // One byte per write: the server sees a partial header/payload on nearly
  // every wakeup and must keep accumulating.
  for (const uint8_t byte : framed) {
    conn.Send(std::span<const uint8_t>(&byte, 1));
  }
  // A complete response frame (kWireOk body) comes back.
  const std::vector<uint8_t> frame = conn.RecvFrame();
  const FrameDecodeResult decoded = TryDecodeFrame(frame);
  ASSERT_EQ(decoded.status, FrameStatus::kFrame);
  ASSERT_GE(decoded.payload.size(), 1u);
  EXPECT_EQ(decoded.payload[0], kWireOk);
  EXPECT_EQ(broker_.GetTopic("dribble").num_partitions(), 1u);
}

TEST_F(TcpBusTest, PeerDisconnectMidFrameIsCountedNotFatal) {
  StartServer();
  {
    std::vector<uint8_t> request;
    BuildEnsureTopicRequest("t", 1, request);
    std::vector<uint8_t> framed;
    EncodeFrame(request, framed);
    RawConn conn(server_->port());
    // Half a frame, then vanish.
    conn.Send(std::span<const uint8_t>(framed.data(), framed.size() / 2));
    conn.Close();
  }
  AwaitCounter("disconnects", 1);
  // The server survived: a fresh client works and the half frame never
  // executed.
  auto client = Dial();
  client->EnsureTopic("alive", 1);
  EXPECT_EQ(client->NumPartitions("alive"), 1u);
  EXPECT_THROW(broker_.GetTopic("t"), std::invalid_argument);
}

TEST_F(TcpBusTest, CorruptFrameQuarantinesConnection) {
  StartServer();
  std::vector<uint8_t> request;
  BuildEnsureTopicRequest("corrupt", 1, request);
  std::vector<uint8_t> framed;
  EncodeFrame(request, framed);
  framed.back() ^= 0xFF;  // breaks the CRC

  RawConn conn(server_->port());
  conn.Send(framed);
  AwaitCounter("protocol_errors", 1);
  EXPECT_TRUE(conn.PeerClosed());
  // The corrupted request was never executed.
  EXPECT_THROW(broker_.GetTopic("corrupt"), std::invalid_argument);
  // And the server still serves new connections.
  auto client = Dial();
  client->EnsureTopic("alive", 1);
}

TEST_F(TcpBusTest, OversizedLengthPrefixQuarantinesConnection) {
  StartServer();
  // 8-byte header claiming a 1 GiB payload.
  std::vector<uint8_t> header(kFrameHeaderBytes, 0);
  const uint32_t huge = 1u << 30;
  for (int i = 0; i < 4; ++i) {
    header[static_cast<size_t>(i)] = static_cast<uint8_t>(huge >> (8 * i));
  }
  RawConn conn(server_->port());
  conn.Send(header);
  AwaitCounter("protocol_errors", 1);
  EXPECT_TRUE(conn.PeerClosed());
}

TEST_F(TcpBusTest, ControlVerbsRoundTripAndPropagateErrors) {
  StartServer([](const std::string& verb, std::span<const uint8_t> payload) {
    if (verb == "echo") {
      return std::vector<uint8_t>(payload.begin(), payload.end());
    }
    throw std::invalid_argument("no verb '" + verb + "'");
  });
  auto client = Dial();
  const std::vector<uint8_t> payload = Bytes("payload");
  EXPECT_EQ(client->Control("echo", payload), payload);
  try {
    client->Control("bogus", {});
    FAIL() << "expected remote error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no verb 'bogus'"),
              std::string::npos)
        << e.what();
  }
  // The error poisoned nothing: the connection still serves requests.
  EXPECT_EQ(client->Control("echo", payload), payload);
}

TEST_F(TcpBusTest, ClientRequestFramesMatchEncodeFrame) {
  // A fake server records each request frame exactly as the client sent
  // it — built and sealed in place — and answers with a minimal reply.
  RawListener listener;
  std::vector<std::vector<uint8_t>> captured;
  std::thread fake([&] {
    RawConn conn(listener.Accept());
    std::vector<uint8_t> produce_ok = {kWireOk};
    PutU32(2, produce_ok);
    std::vector<uint8_t> poll_ok = {kWireOk};
    PutU64(5, poll_ok);
    storage::AppendRecordBatch(
        0, [](size_t) { return storage::BatchRecord{}; }, poll_ok);
    for (const std::vector<uint8_t>* reply : {&produce_ok, &poll_ok}) {
      captured.push_back(conn.RecvFrame());
      conn.Send(Framed(*reply));
    }
  });
  TcpBusClientConfig config;
  config.port = listener.port();
  TcpBusClient client(config);
  const std::vector<uint8_t> a = Bytes("alpha"), b = Bytes("bravo!");
  const std::vector<broker::ProduceView> records = {
      broker::ProduceView{1, a, 10}, broker::ProduceView{2, b, 20}};
  std::vector<broker::RecordView> out;
  EXPECT_NO_THROW(client.Produce("lane", records));
  EXPECT_NO_THROW(client.Poll("lane", 0, 5, 64, out));
  fake.join();

  std::vector<uint8_t> produce;
  BuildProduceRequest("lane", records, produce);
  std::vector<uint8_t> poll;
  BuildPollRequest("lane", 0, 5, 64, kDefaultPollByteBudget, poll);
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0], Framed(produce));
  EXPECT_EQ(captured[1], Framed(poll));
}

TEST_F(TcpBusTest, PipelinedRequestsAnswerIntactAndInOrderAcrossAnError) {
  StartServer();
  auto client = Dial();
  client->EnsureTopic("t", 1);
  const std::vector<uint8_t> payload = Bytes("pipelined");
  const std::vector<broker::ProduceView> records(
      3, broker::ProduceView{7, payload, 5});
  client->Produce("t", records);

  // Ok, error, ok in one write: the server frames all three responses in
  // place in one send queue, so the error must replace only its own bytes.
  std::vector<uint8_t> poll;
  BuildPollRequest("t", 0, 0, 16, 1 << 20, poll);
  std::vector<uint8_t> error;
  BuildTopicMetaRequest("missing", error);
  std::vector<uint8_t> meta;
  BuildTopicMetaRequest("t", meta);
  std::vector<uint8_t> wire;
  for (const std::vector<uint8_t>* request : {&poll, &error, &meta}) {
    EncodeFrame(*request, wire);
  }
  RawConn conn(server_->port());
  conn.Send(wire);
  std::vector<std::vector<uint8_t>> responses;
  for (int i = 0; i < 3; ++i) {
    responses.push_back(conn.RecvFrame());
  }

  // Each response is byte-identical to EncodeFrame of the body the
  // dispatcher produces for that request on its own.
  const std::vector<const std::vector<uint8_t>*> requests = {&poll, &error,
                                                             &meta};
  for (size_t i = 0; i < requests.size(); ++i) {
    std::vector<uint8_t> body;
    HandleRequest(&broker_, {}, *requests[i], body);
    EXPECT_EQ(responses[i], Framed(body)) << "response " << i;
  }
  ASSERT_GT(responses[1].size(), kFrameHeaderBytes);
  EXPECT_EQ(responses[1][kFrameHeaderBytes], kWireError);
  // The connection survived the error and still serves requests.
  conn.Send(Framed(meta));
  EXPECT_EQ(conn.RecvFrame(), responses[2]);
}

TEST_F(TcpBusTest, ClientRedialsAfterServerRestartAndCountsIt) {
  StartServer();
  const uint16_t port = server_->port();
  auto client = Dial();
  client->EnsureTopic("before", 1);
  EXPECT_EQ(Counter("reconnects"), 0u);

  // Bounce the server on the same port (topics live in the same broker, so
  // state survives the restart like a daemon restarting its listener).
  server_.reset();
  TcpBusServerConfig config;
  config.port = port;
  server_ = std::make_unique<TcpBusServer>(config, &broker_);
  server_->Start();

  // The dead connection throws once, then the next call re-dials.
  try {
    client->EnsureTopic("during", 1);
  } catch (const std::exception&) {
  }
  client->EnsureTopic("after", 1);
  EXPECT_EQ(client->NumPartitions("before"), 1u);
  EXPECT_GE(Counter("reconnects"), 1u);
}

}  // namespace
}  // namespace privapprox::transport
