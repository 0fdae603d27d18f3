// The TCP bus's request/response vocabulary: what goes inside a frame.
//
// Each frame payload is one message. Requests carry a one-byte opcode
// mirroring the MessageBus contract (EnsureTopic / Produce / Poll /
// EndOffset / TopicMeta / Release) plus a Control escape hatch the daemons
// use for verbs that are not topic I/O (lane setup, drains, watermark
// advances, metrics dumps). Responses are a status byte followed by the
// op-specific body; errors carry the server-side exception message so the
// client can rethrow something debuggable.
//
// Everything is little-endian and length-prefixed; strings are u16-length,
// payloads u32-length. Records travel as one record batch per request or
// response (storage/record_batch.h): a Produce request is the topic and a
// batch, a Poll response a base offset and a batch. Poll responses are
// byte-budgeted: the server stops packing records once the response body
// would exceed the request's max_bytes (always packing at least one), so a
// poll may legally return fewer records than exist — BusConsumer loops.
//
// HandleRequest is the entire server-side dispatch, operating on a
// broker::Broker plus a control callback and producing the response body.
// It is pure message-in/message-out — the epoll server owns sockets, this
// file owns semantics — which is what lets the protocol be unit-tested
// without a network.

#ifndef PRIVAPPROX_TRANSPORT_WIRE_H_
#define PRIVAPPROX_TRANSPORT_WIRE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "broker/broker.h"

namespace privapprox::transport {

enum class WireOp : uint8_t {
  kEnsureTopic = 1,
  kProduce = 2,
  kPoll = 3,
  kEndOffset = 4,
  kTopicMeta = 5,
  kControl = 6,
  kRelease = 7,
};

inline constexpr uint8_t kWireOk = 0;
inline constexpr uint8_t kWireError = 1;

// Payload bytes a TcpBusClient poll asks for per round-trip; the server
// packs at least one record regardless, so progress is guaranteed.
inline constexpr uint32_t kDefaultPollByteBudget = 1 << 20;

// Most records one Produce request carries: TcpBusClient::Produce splits a
// larger batch into requests of this many, in order, which keeps a large
// fleet's lane batch far below the frame cap.
inline constexpr size_t kMaxProduceRecords = 2048;

// Largest partition count an EnsureTopic request may ask for. The server
// builds every partition up front (plus a log directory each when durable),
// so a peer's count is capped; the largest in-tree topic has 64.
inline constexpr uint32_t kMaxWirePartitions = 1024;

// --- primitive writers/readers -----------------------------------------

void PutU8(uint8_t v, std::vector<uint8_t>& out);
void PutU16(uint16_t v, std::vector<uint8_t>& out);
void PutU32(uint32_t v, std::vector<uint8_t>& out);
void PutU64(uint64_t v, std::vector<uint8_t>& out);
void PutString(const std::string& s, std::vector<uint8_t>& out);  // u16 len
void PutBytes(std::span<const uint8_t> b, std::vector<uint8_t>& out);  // u32

// Bounds-checked sequential reader over one message body. Throws
// std::invalid_argument on truncation — the server turns that into an error
// response, the client into an exception.
class WireReader {
 public:
  explicit WireReader(std::span<const uint8_t> data) : data_(data) {}

  uint8_t TakeU8();
  uint16_t TakeU16();
  uint32_t TakeU32();
  uint64_t TakeU64();
  std::string TakeString();
  std::span<const uint8_t> TakeBytes();
  std::span<const uint8_t> TakeRaw(size_t len);
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

// --- request builders (client side) ------------------------------------

void BuildEnsureTopicRequest(const std::string& topic, size_t num_partitions,
                             std::vector<uint8_t>& out);
void BuildProduceRequest(const std::string& topic,
                         std::span<const broker::ProduceView> records,
                         std::vector<uint8_t>& out);
void BuildPollRequest(const std::string& topic, size_t partition,
                      uint64_t offset, size_t max_records, uint32_t max_bytes,
                      std::vector<uint8_t>& out);
void BuildEndOffsetRequest(const std::string& topic, size_t partition,
                           std::vector<uint8_t>& out);
void BuildTopicMetaRequest(const std::string& topic, std::vector<uint8_t>& out);
// [op][string topic][u32 n][n x u64 offset]: one release offset per
// partition (MessageBus::Release).
void BuildReleaseRequest(const std::string& topic,
                         std::span<const uint64_t> below,
                         std::vector<uint8_t>& out);
void BuildControlRequest(const std::string& verb,
                         std::span<const uint8_t> payload,
                         std::vector<uint8_t>& out);

// --- server dispatch -----------------------------------------------------

// Daemon-specific verbs: (verb, payload) -> response payload. Throwing maps
// to an error response for that request; the connection survives.
using ControlHandler = std::function<std::vector<uint8_t>(
    const std::string& verb, std::span<const uint8_t> payload)>;

// Decodes one request from `request`, executes it against `broker` (or
// `control` for kControl), and appends the response body to `response`,
// after whatever it already holds — the server appends straight into a
// peer's send buffer. A null `broker` serves control verbs only: every
// topic opcode gets an error response. Never throws: every failure becomes
// a kWireError response that replaces only this call's bytes. Returns the
// opcode served (0 on an undecodable request).
uint8_t HandleRequest(broker::Broker* broker, const ControlHandler& control,
                      std::span<const uint8_t> request,
                      std::vector<uint8_t>& response);

}  // namespace privapprox::transport

#endif  // PRIVAPPROX_TRANSPORT_WIRE_H_
