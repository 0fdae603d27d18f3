// In-memory typed table with optional time-ordered retention — the shape of
// a client's private data stream (e.g. a vehicle's speed readings or a
// household's meter readings, timestamped and windowed).

#ifndef PRIVAPPROX_LOCALDB_TABLE_H_
#define PRIVAPPROX_LOCALDB_TABLE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "localdb/value.h"

namespace privapprox::localdb {

struct TimestampedRow {
  int64_t timestamp_ms = 0;
  Row values;
};

class Table {
 public:
  Table(std::string name, std::vector<std::string> columns);

  const std::string& name() const { return name_; }
  const std::vector<std::string>& columns() const { return columns_; }
  size_t num_rows() const { return rows_.size() - head_; }

  // Column index by name; nullopt if absent.
  std::optional<size_t> ColumnIndex(const std::string& column) const;

  // Appends a row (must match the column count) with an event timestamp.
  void Insert(int64_t timestamp_ms, Row row);

  // Drops rows older than `cutoff_ms` (exclusive). Rows are kept in insert
  // order, which client streams guarantee to be time order. Amortized O(1)
  // per evicted row: eviction advances the head, and the buffer compacts
  // once evicted rows make up at least half of it.
  void EvictBefore(int64_t cutoff_ms);

  // The live rows, oldest first. Invalidated by Insert and EvictBefore.
  std::span<const TimestampedRow> rows() const {
    return std::span<const TimestampedRow>(rows_).subspan(head_);
  }

 private:
  std::string name_;
  std::vector<std::string> columns_;
  // rows_[head_..] are live; rows before head_ were evicted and await
  // compaction. One buffer, so a client's few rows cost one allocation.
  std::vector<TimestampedRow> rows_;
  size_t head_ = 0;
};

}  // namespace privapprox::localdb

#endif  // PRIVAPPROX_LOCALDB_TABLE_H_
