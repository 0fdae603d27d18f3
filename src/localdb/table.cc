#include "localdb/table.h"

#include <stdexcept>

namespace privapprox::localdb {

Table::Table(std::string name, std::vector<std::string> columns)
    : name_(std::move(name)), columns_(std::move(columns)) {
  if (name_.empty()) {
    throw std::invalid_argument("Table: empty name");
  }
  if (columns_.empty()) {
    throw std::invalid_argument("Table: need at least one column");
  }
}

std::optional<size_t> Table::ColumnIndex(const std::string& column) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == column) {
      return i;
    }
  }
  return std::nullopt;
}

void Table::Insert(int64_t timestamp_ms, Row row) {
  if (row.size() != columns_.size()) {
    throw std::invalid_argument("Table::Insert: column count mismatch");
  }
  rows_.push_back(TimestampedRow{timestamp_ms, std::move(row)});
}

void Table::EvictBefore(int64_t cutoff_ms) {
  while (head_ < rows_.size() && rows_[head_].timestamp_ms < cutoff_ms) {
    ++head_;
  }
  // Compacting moves at most as many live rows as were evicted since the
  // last compaction.
  if (head_ != 0 && 2 * head_ >= rows_.size()) {
    rows_.erase(rows_.begin(), rows_.begin() + static_cast<long>(head_));
    head_ = 0;
  }
}

}  // namespace privapprox::localdb
