#include "storage/response_store.h"

#include "common/byte_order.h"

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

void AppendAnswers(PartitionLog& log,
                   std::span<const std::pair<int64_t, BitVector>> answers) {
  // Every payload back to back: record i's is [offsets[i], offsets[i + 1]).
  std::vector<uint8_t> payloads;
  std::vector<size_t> offsets = {0};
  for (const auto& [timestamp_ms, answer] : answers) {
    payloads.resize(offsets.back() + 4);
    StoreLe<uint32_t>(payloads.data() + offsets.back(),
                      static_cast<uint32_t>(answer.size()));
    payloads.insert(payloads.end(), answer.bytes().begin(),
                    answer.bytes().end());
    offsets.push_back(payloads.size());
  }
  log.AppendBatch(answers.size(), [&](size_t i) {
    const std::span<const uint8_t> payload(payloads.data() + offsets[i],
                                           payloads.data() + offsets[i + 1]);
    return BatchRecord{0, answers[i].first, payload};
  });
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
    store.Append(timestamp_ms,
                 BitVector::FromBytes(payload.subspan(4),
                                      LoadLe<uint32_t>(payload.data())));
  });
  return store;
}

}  // namespace privapprox::storage
