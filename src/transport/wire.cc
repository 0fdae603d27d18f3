#include "transport/wire.h"

#include <algorithm>
#include <exception>
#include <stdexcept>

#include "common/byte_order.h"
#include "storage/record_batch.h"
#include "transport/inproc_bus.h"

namespace privapprox::transport {

namespace {

// Grows `out` by `n` bytes and returns where they start, for fixed-width
// stores straight into the buffer.
uint8_t* Extend(std::vector<uint8_t>& out, size_t n) {
  const size_t at = out.size();
  out.resize(at + n);
  return out.data() + at;
}

}  // namespace

void PutU8(uint8_t v, std::vector<uint8_t>& out) { out.push_back(v); }

void PutU16(uint16_t v, std::vector<uint8_t>& out) {
  StoreLe<uint16_t>(Extend(out, 2), v);
}

void PutU32(uint32_t v, std::vector<uint8_t>& out) {
  StoreLe<uint32_t>(Extend(out, 4), v);
}

void PutU64(uint64_t v, std::vector<uint8_t>& out) {
  StoreLe<uint64_t>(Extend(out, 8), v);
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

uint16_t WireReader::TakeU16() { return LoadLe<uint16_t>(TakeRaw(2).data()); }

uint32_t WireReader::TakeU32() { return LoadLe<uint32_t>(TakeRaw(4).data()); }

uint64_t WireReader::TakeU64() { return LoadLe<uint64_t>(TakeRaw(8).data()); }

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
  storage::AppendRecordBatch(
      records.size(),
      [records](size_t i) {
        return storage::BatchRecord{records[i].key, records[i].timestamp_ms,
                                    records[i].payload};
      },
      out);
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

void BuildReleaseRequest(const std::string& topic,
                         std::span<const uint64_t> below,
                         std::vector<uint8_t>& out) {
  PutU8(static_cast<uint8_t>(WireOp::kRelease), out);
  PutString(topic, out);
  PutU32(static_cast<uint32_t>(below.size()), out);
  uint8_t* p = Extend(out, below.size() * 8);
  for (const uint64_t offset : below) {
    StoreLe<uint64_t>(p, offset);
    p += 8;
  }
}

void BuildControlRequest(const std::string& verb,
                         std::span<const uint8_t> payload,
                         std::vector<uint8_t>& out) {
  PutU8(static_cast<uint8_t>(WireOp::kControl), out);
  PutString(verb, out);
  PutBytes(payload, out);
}

namespace {

// Replaces whatever this request appended after `start` with an error
// response; bytes before `start` (earlier responses) are left alone.
void PutError(const char* what, size_t start, std::vector<uint8_t>& out) {
  out.resize(start);
  PutU8(kWireError, out);
  std::string message(what);
  message.resize(std::min<size_t>(message.size(), UINT16_MAX));
  PutString(message, out);
}

void ServeProduce(broker::Broker& broker, WireReader& reader,
                  std::vector<uint8_t>& response) {
  const std::string topic = reader.TakeString();
  // The batch is validated against the request body before its count sizes
  // anything. Views point into the request buffer; the append below copies
  // payloads once into topic slabs, exactly like an in-process produce.
  const storage::RecordBatchView batch(reader.TakeRaw(reader.remaining()));
  thread_local std::vector<broker::ProduceView> views;
  views.clear();
  views.reserve(batch.size());
  batch.ForEach([](const storage::BatchRecord& record) {
    views.push_back(
        broker::ProduceView{record.key, record.payload, record.timestamp_ms});
  });
  broker.GetTopic(topic).AppendViews(views);
  PutU8(kWireOk, response);
  PutU32(static_cast<uint32_t>(batch.size()), response);
}

void ServePoll(broker::Broker& broker, WireReader& reader,
               std::vector<uint8_t>& response) {
  const std::string topic = reader.TakeString();
  const size_t partition = reader.TakeU32();
  const uint64_t offset = reader.TakeU64();
  const size_t max_records = reader.TakeU32();
  const uint32_t max_bytes = reader.TakeU32();
  // The topic stops at the byte budget (always reading at least one record,
  // so progress is guaranteed): every view read is packed.
  thread_local std::vector<broker::RecordView> views;
  views.clear();
  broker.GetTopic(topic).ReadViews(partition, offset, max_records, views,
                                   max_bytes);
  // [u8 ok][u64 base offset][batch]: ReadViews returns consecutive offsets,
  // so record i sits at base + i.
  PutU8(kWireOk, response);
  PutU64(views.empty() ? offset : views.front().offset, response);
  storage::AppendRecordBatch(
      views.size(),
      [](size_t i) {
        const broker::RecordView& view = views[i];
        return storage::BatchRecord{view.key, view.timestamp_ms,
                                    view.bytes()};
      },
      response);
}

// Served through an InProcessBus over the daemon's broker, so a remote
// Release checks and frees exactly what a local one does.
void ServeRelease(broker::Broker& broker, WireReader& reader,
                  std::vector<uint8_t>& response) {
  const std::string topic = reader.TakeString();
  const uint32_t count = reader.TakeU32();
  const std::span<const uint8_t> raw = reader.TakeRaw(size_t{count} * 8);
  thread_local std::vector<uint64_t> below;
  below.resize(count);
  for (uint32_t p = 0; p < count; ++p) {
    below[p] = LoadLe<uint64_t>(raw.data() + size_t{p} * 8);
  }
  InProcessBus(broker).Release(topic, below);
  PutU8(kWireOk, response);
}

}  // namespace

uint8_t HandleRequest(broker::Broker* broker, const ControlHandler& control,
                      std::span<const uint8_t> request,
                      std::vector<uint8_t>& response) {
  const size_t start = response.size();
  uint8_t op = 0;
  try {
    WireReader reader(request);
    op = reader.TakeU8();
    if (broker == nullptr && static_cast<WireOp>(op) != WireOp::kControl) {
      throw std::invalid_argument("wire: control verbs only");
    }
    switch (static_cast<WireOp>(op)) {
      case WireOp::kEnsureTopic: {
        const std::string topic = reader.TakeString();
        const uint32_t partitions = reader.TakeU32();
        if (partitions > kMaxWirePartitions) {
          throw std::invalid_argument(
              "wire: partition count " + std::to_string(partitions) +
              " above the limit of " + std::to_string(kMaxWirePartitions));
        }
        broker->EnsureTopic(topic, partitions);
        PutU8(kWireOk, response);
        break;
      }
      case WireOp::kProduce:
        ServeProduce(*broker, reader, response);
        break;
      case WireOp::kPoll:
        ServePoll(*broker, reader, response);
        break;
      case WireOp::kEndOffset: {
        const std::string topic = reader.TakeString();
        const size_t partition = reader.TakeU32();
        PutU8(kWireOk, response);
        PutU64(broker->GetTopic(topic).EndOffset(partition), response);
        break;
      }
      case WireOp::kTopicMeta: {
        const std::string topic = reader.TakeString();
        PutU8(kWireOk, response);
        PutU32(static_cast<uint32_t>(
                   broker->GetTopic(topic).num_partitions()),
               response);
        break;
      }
      case WireOp::kRelease:
        ServeRelease(*broker, reader, response);
        break;
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
    PutError(e.what(), start, response);
  }
  return op;
}

}  // namespace privapprox::transport
