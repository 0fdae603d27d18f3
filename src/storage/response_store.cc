#include "storage/response_store.h"

#include <algorithm>

namespace privapprox::storage {

void ResponseStore::Append(int64_t timestamp_ms, const BitVector& answer) {
  entries_.push_back(Entry{timestamp_ms, answer});
}

std::vector<const ResponseStore::Entry*> ResponseStore::Range(
    int64_t from_ms, int64_t to_ms) const {
  std::vector<const Entry*> out;
  for (const Entry& entry : entries_) {
    if (entry.timestamp_ms >= from_ms && entry.timestamp_ms < to_ms) {
      out.push_back(&entry);
    }
  }
  return out;
}

void AppendAnswer(PartitionLog& log, int64_t timestamp_ms,
                  const BitVector& answer) {
  const uint32_t num_bits = static_cast<uint32_t>(answer.size());
  std::vector<uint8_t> payload(4 + answer.ByteSize());
  for (int i = 0; i < 4; ++i) {
    payload[i] = static_cast<uint8_t>(num_bits >> (8 * i));
  }
  std::ranges::copy(answer.bytes(), payload.begin() + 4);
  log.Append(/*key=*/0, timestamp_ms, payload);
}

ResponseStore LoadAnswers(const PartitionLog& log, int64_t from_ms,
                          int64_t to_ms) {
  ResponseStore store;
  log.Replay([&](uint64_t, uint64_t, int64_t timestamp_ms,
                 std::span<const uint8_t> payload) {
    if (timestamp_ms < from_ms || timestamp_ms >= to_ms) {
      return;
    }
    if (payload.size() < 4) {
      throw SegmentLogError("answer record shorter than its bit count");
    }
    uint32_t num_bits = 0;
    for (int i = 0; i < 4; ++i) {
      num_bits |= static_cast<uint32_t>(payload[i]) << (8 * i);
    }
    store.Append(timestamp_ms,
                 BitVector::FromBytes(payload.subspan(4), num_bits));
  });
  return store;
}

}  // namespace privapprox::storage
