#include "transport/frame.h"

#include "common/byte_order.h"
#include "storage/crc32.h"

namespace privapprox::transport {

size_t BeginFrame(std::vector<uint8_t>& out) {
  const size_t frame_start = out.size();
  out.resize(frame_start + kFrameHeaderBytes);
  return frame_start;
}

void SealFrame(std::vector<uint8_t>& out, size_t frame_start) {
  uint8_t* header = out.data() + frame_start;
  const size_t payload_len = out.size() - frame_start - kFrameHeaderBytes;
  StoreLe<uint32_t>(header, static_cast<uint32_t>(payload_len));
  StoreLe<uint32_t>(header + 4, storage::Crc32(header + kFrameHeaderBytes,
                                               payload_len));
}

void EncodeFrame(std::span<const uint8_t> payload, std::vector<uint8_t>& out) {
  const size_t frame_start = BeginFrame(out);
  out.insert(out.end(), payload.begin(), payload.end());
  SealFrame(out, frame_start);
}

FrameDecodeResult TryDecodeFrame(std::span<const uint8_t> buffer,
                                 size_t max_frame_bytes) {
  FrameDecodeResult result;
  if (buffer.size() < kFrameHeaderBytes) {
    result.status = FrameStatus::kNeedMore;
    result.need = kFrameHeaderBytes;
    return result;
  }
  const uint32_t payload_len = LoadLe<uint32_t>(buffer.data());
  if (payload_len > max_frame_bytes) {
    result.status = FrameStatus::kTooLarge;
    return result;
  }
  if (buffer.size() < kFrameHeaderBytes + payload_len) {
    result.status = FrameStatus::kNeedMore;
    result.need = kFrameHeaderBytes + payload_len;
    return result;
  }
  const uint32_t want_crc = LoadLe<uint32_t>(buffer.data() + 4);
  const uint8_t* payload = buffer.data() + kFrameHeaderBytes;
  if (storage::Crc32(payload, payload_len) != want_crc) {
    result.status = FrameStatus::kCrcMismatch;
    return result;
  }
  result.status = FrameStatus::kFrame;
  result.payload = std::span<const uint8_t>(payload, payload_len);
  result.consumed = kFrameHeaderBytes + payload_len;
  return result;
}

}  // namespace privapprox::transport
