#include "transport/wire.h"

#include <exception>
#include <stdexcept>

namespace privapprox::transport {

void PutU8(uint8_t v, std::vector<uint8_t>& out) { out.push_back(v); }

void PutU16(uint16_t v, std::vector<uint8_t>& out) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(uint32_t v, std::vector<uint8_t>& out) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutU64(uint64_t v, std::vector<uint8_t>& out) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutString(const std::string& s, std::vector<uint8_t>& out) {
  if (s.size() > UINT16_MAX) {
    throw std::invalid_argument("wire: string too long");
  }
  PutU16(static_cast<uint16_t>(s.size()), out);
  out.insert(out.end(), s.begin(), s.end());
}

void PutBytes(std::span<const uint8_t> b, std::vector<uint8_t>& out) {
  PutU32(static_cast<uint32_t>(b.size()), out);
  out.insert(out.end(), b.begin(), b.end());
}

std::span<const uint8_t> WireReader::TakeRaw(size_t len) {
  if (data_.size() - pos_ < len) {
    throw std::invalid_argument("wire: truncated message");
  }
  const auto out = data_.subspan(pos_, len);
  pos_ += len;
  return out;
}

uint8_t WireReader::TakeU8() { return TakeRaw(1)[0]; }

uint16_t WireReader::TakeU16() {
  const auto b = TakeRaw(2);
  return static_cast<uint16_t>(b[0] | (b[1] << 8));
}

uint32_t WireReader::TakeU32() {
  const auto b = TakeRaw(4);
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(b[i]) << (8 * i);
  }
  return v;
}

uint64_t WireReader::TakeU64() {
  const auto b = TakeRaw(8);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(b[i]) << (8 * i);
  }
  return v;
}

std::string WireReader::TakeString() {
  const uint16_t len = TakeU16();
  const auto b = TakeRaw(len);
  return std::string(b.begin(), b.end());
}

std::span<const uint8_t> WireReader::TakeBytes() {
  const uint32_t len = TakeU32();
  return TakeRaw(len);
}

void BuildEnsureTopicRequest(const std::string& topic, size_t num_partitions,
                             std::vector<uint8_t>& out) {
  PutU8(static_cast<uint8_t>(WireOp::kEnsureTopic), out);
  PutString(topic, out);
  PutU32(static_cast<uint32_t>(num_partitions), out);
}

void BuildProduceRequest(const std::string& topic,
                         std::span<const broker::ProduceView> records,
                         std::vector<uint8_t>& out) {
  PutU8(static_cast<uint8_t>(WireOp::kProduce), out);
  PutString(topic, out);
  PutU32(static_cast<uint32_t>(records.size()), out);
  for (const auto& record : records) {
    PutU64(record.key, out);
    PutU64(static_cast<uint64_t>(record.timestamp_ms), out);
    PutBytes(record.payload, out);
  }
}

void BuildPollRequest(const std::string& topic, size_t partition,
                      uint64_t offset, size_t max_records, uint32_t max_bytes,
                      std::vector<uint8_t>& out) {
  PutU8(static_cast<uint8_t>(WireOp::kPoll), out);
  PutString(topic, out);
  PutU32(static_cast<uint32_t>(partition), out);
  PutU64(offset, out);
  PutU32(static_cast<uint32_t>(max_records), out);
  PutU32(max_bytes, out);
}

void BuildEndOffsetRequest(const std::string& topic, size_t partition,
                           std::vector<uint8_t>& out) {
  PutU8(static_cast<uint8_t>(WireOp::kEndOffset), out);
  PutString(topic, out);
  PutU32(static_cast<uint32_t>(partition), out);
}

void BuildTopicMetaRequest(const std::string& topic,
                           std::vector<uint8_t>& out) {
  PutU8(static_cast<uint8_t>(WireOp::kTopicMeta), out);
  PutString(topic, out);
}

void BuildControlRequest(const std::string& verb,
                         std::span<const uint8_t> payload,
                         std::vector<uint8_t>& out) {
  PutU8(static_cast<uint8_t>(WireOp::kControl), out);
  PutString(verb, out);
  PutBytes(payload, out);
}

namespace {

void PutError(const char* what, std::vector<uint8_t>& out) {
  out.clear();
  PutU8(kWireError, out);
  PutString(std::string(what), out);
}

void ServeProduce(broker::Broker& broker, WireReader& reader,
                  std::vector<uint8_t>& response) {
  const std::string topic = reader.TakeString();
  const uint32_t count = reader.TakeU32();
  // A record is at least its key, timestamp and payload length (20 bytes):
  // reject a count the frame cannot hold before reserving for it.
  if (count > reader.remaining() / 20) {
    throw std::invalid_argument("wire: produce count " +
                                std::to_string(count) +
                                " exceeds the request body");
  }
  // Decode into views over the request buffer — the append below copies
  // payloads once into topic slabs, exactly like an in-process produce.
  thread_local std::vector<broker::ProduceView> views;
  views.clear();
  views.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    const uint64_t key = reader.TakeU64();
    const int64_t ts = static_cast<int64_t>(reader.TakeU64());
    views.push_back(broker::ProduceView{key, reader.TakeBytes(), ts});
  }
  broker.GetTopic(topic).AppendViews(views);
  PutU8(kWireOk, response);
  PutU32(count, response);
}

void ServePoll(broker::Broker& broker, WireReader& reader,
               std::vector<uint8_t>& response) {
  const std::string topic = reader.TakeString();
  const size_t partition = reader.TakeU32();
  const uint64_t offset = reader.TakeU64();
  const size_t max_records = reader.TakeU32();
  const uint32_t max_bytes = reader.TakeU32();
  thread_local std::vector<broker::RecordView> views;
  views.clear();
  broker.GetTopic(topic).ReadViews(partition, offset, max_records, views);
  PutU8(kWireOk, response);
  const size_t count_pos = response.size();
  PutU32(0, response);  // patched below
  uint32_t packed = 0;
  size_t body_bytes = 0;
  for (const auto& view : views) {
    // Byte-budgeted: always pack at least one record so progress is
    // guaranteed, stop before exceeding the requested response budget.
    if (packed > 0 && body_bytes + view.payload_len > max_bytes) {
      break;
    }
    PutU64(view.offset, response);
    PutU64(view.key, response);
    PutU64(static_cast<uint64_t>(view.timestamp_ms), response);
    PutBytes(view.bytes(), response);
    body_bytes += view.payload_len;
    ++packed;
  }
  for (int i = 0; i < 4; ++i) {
    response[count_pos + i] = static_cast<uint8_t>(packed >> (8 * i));
  }
}

}  // namespace

uint8_t HandleRequest(broker::Broker& broker, const ControlHandler& control,
                      std::span<const uint8_t> request,
                      std::vector<uint8_t>& response) {
  response.clear();
  uint8_t op = 0;
  try {
    WireReader reader(request);
    op = reader.TakeU8();
    switch (static_cast<WireOp>(op)) {
      case WireOp::kEnsureTopic: {
        const std::string topic = reader.TakeString();
        const uint32_t partitions = reader.TakeU32();
        if (partitions > kMaxWirePartitions) {
          throw std::invalid_argument(
              "wire: partition count " + std::to_string(partitions) +
              " above the limit of " + std::to_string(kMaxWirePartitions));
        }
        broker.EnsureTopic(topic, partitions);
        PutU8(kWireOk, response);
        break;
      }
      case WireOp::kProduce:
        ServeProduce(broker, reader, response);
        break;
      case WireOp::kPoll:
        ServePoll(broker, reader, response);
        break;
      case WireOp::kEndOffset: {
        const std::string topic = reader.TakeString();
        const size_t partition = reader.TakeU32();
        PutU8(kWireOk, response);
        PutU64(broker.GetTopic(topic).EndOffset(partition), response);
        break;
      }
      case WireOp::kTopicMeta: {
        const std::string topic = reader.TakeString();
        PutU8(kWireOk, response);
        PutU32(static_cast<uint32_t>(
                   broker.GetTopic(topic).num_partitions()),
               response);
        break;
      }
      case WireOp::kControl: {
        const std::string verb = reader.TakeString();
        const auto payload = reader.TakeBytes();
        if (!control) {
          throw std::invalid_argument("wire: no control handler");
        }
        const std::vector<uint8_t> reply = control(verb, payload);
        PutU8(kWireOk, response);
        PutBytes(reply, response);
        break;
      }
      default:
        throw std::invalid_argument("wire: unknown opcode " +
                                    std::to_string(op));
    }
  } catch (const std::exception& e) {
    PutError(e.what(), response);
  }
  return op;
}

}  // namespace privapprox::transport
