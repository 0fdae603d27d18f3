// Wire framing for the TCP bus: length-prefixed, CRC-guarded records.
//
// Every message on a bus connection is one frame:
//
//   [u32 payload_len][u32 crc32(payload)][payload bytes]   (little-endian)
//
// The CRC is the IEEE polynomial from storage/crc32 — the same integrity
// check the durable segment log uses — computed over the payload only, so a
// flipped length byte shows up as a CRC mismatch on whatever bytes the bad
// length framed. Decoding is incremental: feed whatever the socket
// delivered into an accumulating buffer and TryDecodeFrame either yields a
// complete frame, asks for more bytes, or reports a protocol error
// (oversized length or CRC mismatch) after which the connection must be
// quarantined — framing cannot resynchronize mid-stream.
//
// Encoding is in place: BeginFrame appends a header placeholder to the
// buffer that will cross the socket, the caller appends the payload right
// behind it, and SealFrame writes the header over the placeholder. The
// payload is never copied to be framed.

#ifndef PRIVAPPROX_TRANSPORT_FRAME_H_
#define PRIVAPPROX_TRANSPORT_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace privapprox::transport {

// Frames larger than this are a protocol error on both ends. Generously
// above the TCP bus's poll byte budget, comfortably below anything that
// could exhaust a peer: a malicious or corrupt length prefix cannot make a
// receiver buffer gigabytes.
inline constexpr size_t kMaxFrameBytes = 64 * 1024 * 1024;
inline constexpr size_t kFrameHeaderBytes = 8;

// Appends the header placeholder of a new frame to `out` and returns the
// frame's start offset, to be passed to SealFrame once the payload follows.
size_t BeginFrame(std::vector<uint8_t>& out);

// Writes the header of the frame begun at `frame_start`: its payload is
// every byte appended to `out` since BeginFrame.
void SealFrame(std::vector<uint8_t>& out, size_t frame_start);

// Appends one encoded frame (header + payload) to `out`: BeginFrame, the
// payload, SealFrame.
void EncodeFrame(std::span<const uint8_t> payload, std::vector<uint8_t>& out);

enum class FrameStatus {
  kFrame,        // a complete, CRC-valid frame was decoded
  kNeedMore,     // the buffer holds only a partial header or payload
  kTooLarge,     // length prefix exceeds max_frame_bytes — quarantine
  kCrcMismatch,  // payload bytes fail the CRC — quarantine
};

struct FrameDecodeResult {
  FrameStatus status = FrameStatus::kNeedMore;
  // On kFrame: the payload, viewing into the caller's buffer, and the total
  // encoded size (header + payload) to consume from the buffer's front.
  std::span<const uint8_t> payload;
  size_t consumed = 0;
  // On kNeedMore: the buffer size the next attempt needs — the header size
  // until the header is in, then the whole frame's encoded size.
  size_t need = 0;
};

// Attempts to decode one frame from the front of `buffer`. Never consumes
// bytes itself — on kFrame the caller erases `consumed` bytes from the
// buffer's front after using the payload view.
FrameDecodeResult TryDecodeFrame(std::span<const uint8_t> buffer,
                                 size_t max_frame_bytes = kMaxFrameBytes);

}  // namespace privapprox::transport

#endif  // PRIVAPPROX_TRANSPORT_FRAME_H_
