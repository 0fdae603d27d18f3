#include "storage/record_batch.h"

#include <cstdio>
#include <stdexcept>
#include <string>

namespace privapprox::storage {

namespace record_batch_internal {

size_t BatchShape::EncodedBytes() const {
  if (count > UINT32_MAX) {
    throw std::length_error("record batch: " + std::to_string(count) +
                            " records exceed the u32 count");
  }
  const bool fixed_width = (attributes & kBatchFixedWidth) != 0;
  uint64_t bytes = kRecordBatchHeaderBytes + payload_bytes;
  bytes += fixed_width ? 4 : 4 * count;
  bytes += (attributes & kBatchKeyInPayload) != 0 ? 0 : 8 * count;
  bytes += (attributes & kBatchTimestampDeltas) != 0 ? delta_bytes : 0;
  if (bytes > UINT32_MAX) {
    throw std::length_error("record batch: " + std::to_string(bytes) +
                            " bytes exceed the 4 GiB batch limit");
  }
  return static_cast<size_t>(bytes);
}

uint8_t* BatchShape::WriteHeader(uint8_t* p) const {
  p[0] = kRecordBatchMagic;
  p[1] = attributes;
  StoreLe<uint32_t>(p + 2, static_cast<uint32_t>(count));
  StoreLe<uint64_t>(p + 6, static_cast<uint64_t>(base_timestamp_ms));
  p += kRecordBatchHeaderBytes;
  if ((attributes & kBatchFixedWidth) != 0) {
    StoreLe<uint32_t>(p, width);
    p += 4;
  }
  return p;
}

}  // namespace record_batch_internal

namespace {

[[noreturn]] void Refuse(const std::string& what) {
  throw std::invalid_argument("record batch: " + what);
}

}  // namespace

RecordBatchView::RecordBatchView(std::span<const uint8_t> batch) {
  if (batch.size() < kRecordBatchHeaderBytes) {
    Refuse(std::to_string(batch.size()) + " bytes are shorter than the " +
           std::to_string(kRecordBatchHeaderBytes) + "-byte header");
  }
  if (batch[0] != kRecordBatchMagic) {
    char what[40];
    std::snprintf(what, sizeof(what), "format magic 0x%02X, want 0x%02X",
                  batch[0], kRecordBatchMagic);
    Refuse(what);
  }
  const uint8_t attributes = batch[1];
  if ((attributes & ~(kBatchFixedWidth | kBatchKeyInPayload |
                      kBatchTimestampDeltas)) != 0) {
    Refuse("unknown attribute bits " + std::to_string(attributes));
  }
  count_ = LoadLe<uint32_t>(batch.data() + 2);
  base_timestamp_ms_ =
      static_cast<int64_t>(LoadLe<uint64_t>(batch.data() + 6));
  std::span<const uint8_t> rest = batch.subspan(kRecordBatchHeaderBytes);
  const bool fixed_width = (attributes & kBatchFixedWidth) != 0;
  const bool key_in_payload = (attributes & kBatchKeyInPayload) != 0;
  if (fixed_width) {
    if (rest.size() < 4) {
      Refuse("truncated before its width");
    }
    width_ = LoadLe<uint32_t>(rest.data());
    rest = rest.subspan(4);
  }
  // Every record takes at least 8 bytes (a key column entry, or a payload
  // that starts with its key), so a count the bytes cannot hold is refused
  // before any column is walked.
  if (count_ > rest.size() / 8) {
    Refuse("count " + std::to_string(count_) + " exceeds the " +
           std::to_string(rest.size()) + " bytes behind the header");
  }
  const auto take_column = [&](uint64_t bytes, const char* name) {
    if (bytes > rest.size()) {
      Refuse(std::string("the ") + name + " column exceeds the batch");
    }
    const uint8_t* column = rest.data();
    rest = rest.subspan(static_cast<size_t>(bytes));
    return column;
  };
  if (!key_in_payload) {
    keys_ = take_column(8 * uint64_t{count_}, "key");
  }
  uint64_t payload_bytes = uint64_t{width_} * count_;
  if (!fixed_width) {
    lengths_ = take_column(4 * uint64_t{count_}, "length");
    payload_bytes = 0;
    for (uint32_t i = 0; i < count_; ++i) {
      const uint32_t len = LoadLe<uint32_t>(lengths_ + 4 * size_t{i});
      if (key_in_payload && len < 8) {
        Refuse("record " + std::to_string(i) + " is shorter than its key");
      }
      payload_bytes += len;
    }
  } else if (key_in_payload && count_ > 0 && width_ < 8) {
    Refuse("width " + std::to_string(width_) + " is shorter than a key");
  }
  if ((attributes & kBatchTimestampDeltas) != 0) {
    // Each delta is a varint of at most 10 bytes that ends inside the
    // column; the column ends where the last one does.
    size_t at = 0;
    for (uint32_t i = 0; i < count_; ++i) {
      for (size_t n = 0;; ++n) {
        if (at == rest.size() || n == 10) {
          Refuse("timestamp delta " + std::to_string(i) + " is malformed");
        }
        if ((rest[at++] & 0x80) == 0) {
          break;
        }
      }
    }
    deltas_ = take_column(at, "timestamp");
  }
  if (payload_bytes != rest.size()) {
    Refuse("payloads claim " + std::to_string(payload_bytes) +
           " bytes, the batch holds " + std::to_string(rest.size()));
  }
  payloads_ = rest;
}

}  // namespace privapprox::storage
