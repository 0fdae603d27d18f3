// In-memory time-ordered store of joined randomized answers — the working
// set of historical analytics (§3.3.1) — and its durable form: a
// PartitionLog holding one record per answer (key 0, timestamp = event
// time, payload = u32 little-endian bit count + answer bytes). A durable
// historical store replays the requested range into a ResponseStore for
// batch processing.

#ifndef PRIVAPPROX_STORAGE_RESPONSE_STORE_H_
#define PRIVAPPROX_STORAGE_RESPONSE_STORE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/bitvector.h"
#include "storage/partition_log.h"

namespace privapprox::storage {

class ResponseStore {
 public:
  void Append(int64_t timestamp_ms, const BitVector& answer);

  size_t size() const { return entries_.size(); }

  struct Entry {
    int64_t timestamp_ms;
    BitVector answer;
  };
  // Entries with timestamp in [from_ms, to_ms).
  std::vector<const Entry*> Range(int64_t from_ms, int64_t to_ms) const;

 private:
  std::vector<Entry> entries_;  // append order == time order
};

// Appends (timestamp, answer) pairs to `log` as one batch: one frame, one
// CRC and one write(2) for the lot.
void AppendAnswers(PartitionLog& log,
                   std::span<const std::pair<int64_t, BitVector>> answers);

// Replays every answer record in `log` with timestamp in [from_ms, to_ms).
// Throws SegmentLogError on a record too short to hold its bit count.
ResponseStore LoadAnswers(const PartitionLog& log, int64_t from_ms,
                          int64_t to_ms);

}  // namespace privapprox::storage

#endif  // PRIVAPPROX_STORAGE_RESPONSE_STORE_H_
