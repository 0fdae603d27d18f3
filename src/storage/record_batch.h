// The record-batch codec: the one place records are framed. A TCP Produce
// request, a TCP Poll response and each PartitionLog frame carry one batch.
//
// The layout follows Kafka's v2 record batch (KIP-98): one header for the
// batch, then one column per record field, with every column the records
// make redundant left out. Little-endian throughout:
//
//   [u8 magic][u8 attributes][u32 count][i64 base_timestamp_ms]
//   [u32 width]                               if kBatchFixedWidth
//   [count x u64 key]                         unless kBatchKeyInPayload
//   [count x u32 length]                      unless kBatchFixedWidth
//   [count x zigzag varint ts - base]         if kBatchTimestampDeltas
//   [payload block: every payload, back to back, in record order]
//
// The encoder reads the attributes off the records it is handed: one width
// replaces the length column when every payload is equally long; the key
// column goes when every key equals its payload's first 8 bytes (LE); and
// the timestamp column goes when every record has the first one's
// timestamp. A lane share (MID-prefixed, one width per lane, one timestamp
// per epoch) or a historical answer (QID-prefixed, likewise) therefore
// costs its own bytes and nothing more, while any other record
// (announcements, journal entries, deferred shares) still round-trips. A
// batch carries no length and no checksum of its own: the frame around it
// (transport frame, log frame) has both, and the batch must fill that frame
// exactly.
//
// The payload block is contiguous, so a reader copies every payload with
// one memcpy and a log writes the whole batch with one write(2).

#ifndef PRIVAPPROX_STORAGE_RECORD_BATCH_H_
#define PRIVAPPROX_STORAGE_RECORD_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/byte_order.h"

namespace privapprox::storage {

// The format's first byte. Anything else in front of a batch (a log written
// before record batches, another format) is refused, never guessed at.
inline constexpr uint8_t kRecordBatchMagic = 0xB2;
inline constexpr size_t kRecordBatchHeaderBytes = 14;

inline constexpr uint8_t kBatchFixedWidth = 0x01;
inline constexpr uint8_t kBatchKeyInPayload = 0x02;
inline constexpr uint8_t kBatchTimestampDeltas = 0x04;

// One record as the codec sees it: the encoder's input, the decoder's
// output. `payload` is not owned.
struct BatchRecord {
  uint64_t key = 0;
  int64_t timestamp_ms = 0;
  std::span<const uint8_t> payload;
};

namespace record_batch_internal {

inline uint64_t ZigZag(uint64_t delta) {
  return (delta << 1) ^ (0 - (delta >> 63));
}

inline uint64_t UnZigZag(uint64_t zigzag) {
  return (zigzag >> 1) ^ (0 - (zigzag & 1));
}

// ts - base and base + delta in two's complement, so any pair of int64
// timestamps round-trips.
inline uint64_t Delta(int64_t timestamp_ms, int64_t base_ms) {
  return static_cast<uint64_t>(timestamp_ms) - static_cast<uint64_t>(base_ms);
}

inline size_t VarintBytes(uint64_t v) {
  size_t n = 1;
  for (; v >= 0x80; v >>= 7) {
    ++n;
  }
  return n;
}

inline uint8_t* PutVarint(uint64_t v, uint8_t* p) {
  for (; v >= 0x80; v >>= 7) {
    *p++ = static_cast<uint8_t>(v | 0x80);
  }
  *p++ = static_cast<uint8_t>(v);
  return p;
}

// What the records make redundant, read off them by the encoder's first
// pass.
struct BatchShape {
  uint8_t attributes = 0;
  uint64_t count = 0;
  int64_t base_timestamp_ms = 0;
  uint32_t width = 0;
  uint64_t delta_bytes = 0;  // the timestamp column, when it is kept
  uint64_t payload_bytes = 0;

  // The whole encoded batch; throws std::length_error for 2^32 records or
  // more, or past 4 GiB.
  size_t EncodedBytes() const;
  // Writes the header (and the width) at `p`; returns where the columns
  // start.
  uint8_t* WriteHeader(uint8_t* p) const;
};

}  // namespace record_batch_internal

// Appends one batch of `count` records to `out`; `at(i)` returns record i
// as a BatchRecord and is called twice per record (once to read the
// batch's shape, once to write it).
template <typename RecordAt>
void AppendRecordBatch(size_t count, const RecordAt& at,
                       std::vector<uint8_t>& out) {
  namespace internal = record_batch_internal;
  internal::BatchShape shape;
  shape.count = count;
  bool fixed_width = count > 0;
  bool key_in_payload = count > 0;
  bool same_timestamp = true;
  if (count > 0) {
    const BatchRecord first = at(0);
    shape.base_timestamp_ms = first.timestamp_ms;
    shape.width = static_cast<uint32_t>(first.payload.size());
  }
  for (size_t i = 0; i < count; ++i) {
    const BatchRecord record = at(i);
    const size_t len = record.payload.size();
    const uint64_t delta =
        internal::ZigZag(internal::Delta(record.timestamp_ms,
                                         shape.base_timestamp_ms));
    shape.payload_bytes += len;
    shape.delta_bytes += internal::VarintBytes(delta);
    fixed_width = fixed_width && len == shape.width;
    key_in_payload = key_in_payload && len >= 8 &&
                     LoadLe<uint64_t>(record.payload.data()) == record.key;
    same_timestamp = same_timestamp && delta == 0;
  }
  shape.attributes =
      static_cast<uint8_t>((fixed_width ? kBatchFixedWidth : 0) |
                           (key_in_payload ? kBatchKeyInPayload : 0) |
                           (same_timestamp ? 0 : kBatchTimestampDeltas));
  const size_t start = out.size();
  out.resize(start + shape.EncodedBytes());
  uint8_t* keys = shape.WriteHeader(out.data() + start);
  uint8_t* lengths = keys + (key_in_payload ? 0 : 8 * count);
  uint8_t* deltas = lengths + (fixed_width ? 0 : 4 * count);
  uint8_t* block = deltas + (same_timestamp ? 0 : shape.delta_bytes);
  for (size_t i = 0; i < count; ++i) {
    const BatchRecord record = at(i);
    const size_t len = record.payload.size();
    if (!key_in_payload) {
      StoreLe<uint64_t>(keys, record.key);
      keys += 8;
    }
    if (!fixed_width) {
      StoreLe<uint32_t>(lengths, static_cast<uint32_t>(len));
      lengths += 4;
    }
    if (!same_timestamp) {
      deltas = internal::PutVarint(
          internal::ZigZag(internal::Delta(record.timestamp_ms,
                                           shape.base_timestamp_ms)),
          deltas);
    }
    if (len > 0) {
      std::memcpy(block, record.payload.data(), len);
    }
    block += len;
  }
}

// A validated, non-owning view of one encoded batch. The constructor checks
// every header field and column against the bytes it is handed, before
// anything is sized by them, and allocates nothing.
class RecordBatchView {
 public:
  // `batch` must be exactly one encoded batch. Throws std::invalid_argument
  // naming the first field that does not fit: a wrong magic, unknown
  // attribute bits, a count, width, length or timestamp column that claims
  // more than the bytes hold, a key-prefixed record shorter than its key, or
  // bytes left over after the payload block.
  explicit RecordBatchView(std::span<const uint8_t> batch);

  size_t size() const { return count_; }
  // Every payload, back to back in record order.
  std::span<const uint8_t> payloads() const { return payloads_; }

  // Calls fn(const BatchRecord&) for each record in order; payload spans
  // point into the batch.
  template <typename Fn>
  void ForEach(const Fn& fn) const {
    const uint8_t* payload = payloads_.data();
    const uint8_t* delta = deltas_;
    for (uint32_t i = 0; i < count_; ++i) {
      BatchRecord record;
      const uint32_t len =
          lengths_ == nullptr ? width_ : LoadLe<uint32_t>(lengths_ + 4 * i);
      record.payload = std::span<const uint8_t>(payload, len);
      record.key = keys_ == nullptr ? LoadLe<uint64_t>(payload)
                                    : LoadLe<uint64_t>(keys_ + 8 * i);
      record.timestamp_ms = base_timestamp_ms_;
      if (delta != nullptr) {
        // Validated by the constructor: terminated within its column.
        uint64_t zigzag = 0;
        for (int shift = 0;; shift += 7) {
          const uint8_t byte = *delta++;
          zigzag |= static_cast<uint64_t>(byte & 0x7F) << shift;
          if ((byte & 0x80) == 0) {
            break;
          }
        }
        record.timestamp_ms = static_cast<int64_t>(
            static_cast<uint64_t>(base_timestamp_ms_) +
            record_batch_internal::UnZigZag(zigzag));
      }
      fn(record);
      payload += len;
    }
  }

 private:
  uint32_t count_ = 0;
  int64_t base_timestamp_ms_ = 0;
  uint32_t width_ = 0;
  const uint8_t* keys_ = nullptr;     // null: keys are payload prefixes
  const uint8_t* lengths_ = nullptr;  // null: every payload is width_ long
  const uint8_t* deltas_ = nullptr;   // null: every record has the base ts
  std::span<const uint8_t> payloads_;
};

}  // namespace privapprox::storage

#endif  // PRIVAPPROX_STORAGE_RECORD_BATCH_H_
