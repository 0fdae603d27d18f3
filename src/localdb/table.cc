#include "localdb/table.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace privapprox::localdb {

Table::Table(std::string name, std::vector<std::string> columns)
    : schema_(Intern(std::move(name), std::move(columns))),
      width_(schema_->columns.size()) {}

std::shared_ptr<const Table::Schema> Table::Intern(
    std::string name, std::vector<std::string> columns) {
  if (name.empty()) {
    throw std::invalid_argument("Table: empty name");
  }
  if (columns.empty()) {
    throw std::invalid_argument("Table: need at least one column");
  }
  // A fleet creates the same table for every client, so the schema this
  // thread interned last nearly always matches: no lock, no allocation.
  thread_local std::shared_ptr<const Schema> last;
  if (last != nullptr && last->name == name && last->columns == columns) {
    return last;
  }
  // Every live schema; entries of schemas no table uses any more are
  // dropped as the search passes them.
  static std::mutex mu;
  static std::vector<std::weak_ptr<const Schema>> schemas;
  const std::lock_guard<std::mutex> lock(mu);
  std::shared_ptr<const Schema> found;
  std::erase_if(schemas, [&](const std::weak_ptr<const Schema>& entry) {
    std::shared_ptr<const Schema> schema = entry.lock();
    if (schema == nullptr) {
      return true;
    }
    if (found == nullptr && schema->name == name &&
        schema->columns == columns) {
      found = std::move(schema);
    }
    return false;
  });
  if (found == nullptr) {
    found = std::make_shared<const Schema>(
        Schema{std::move(name), std::move(columns)});
    schemas.push_back(found);
  }
  last = found;
  return found;
}

Table::Table(Table&& other) noexcept
    : schema_(std::move(other.schema_)),
      width_(other.width_),
      rows_(std::exchange(other.rows_, nullptr)),
      head_(std::exchange(other.head_, 0)),
      size_(std::exchange(other.size_, 0)),
      capacity_(std::exchange(other.capacity_, 0)) {}

Table::~Table() {
  for (size_t slot = head_; slot < size_; ++slot) {
    std::destroy_n(Cells(RowAt(slot)), width_);
  }
  ::operator delete(rows_);
}

std::optional<size_t> Table::ColumnIndex(const std::string& column) const {
  const std::vector<std::string>& names = columns();
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == column) {
      return i;
    }
  }
  return std::nullopt;
}

void Table::MoveLiveRowsTo(std::byte* dest) {
  for (size_t slot = head_; slot < size_; ++slot) {
    std::byte* source = RowAt(slot);
    std::byte* target = dest + (slot - head_) * stride();
    std::memcpy(target, source, sizeof(int64_t));  // the timestamp
    std::uninitialized_move_n(Cells(source), width_, Cells(target));
    std::destroy_n(Cells(source), width_);
  }
  size_ -= head_;
  head_ = 0;
}

void Table::Grow() {
  // Doubling from two rows: a stream table holds the reading that arrives
  // beside the one it is about to evict.
  const size_t capacity = std::max<size_t>(2, 2 * capacity_);
  auto* rows = static_cast<std::byte*>(::operator new(capacity * stride()));
  MoveLiveRowsTo(rows);
  ::operator delete(rows_);
  rows_ = rows;
  capacity_ = capacity;
}

void Table::Insert(int64_t timestamp_ms, Row row) {
  if (row.size() != width_) {
    throw std::invalid_argument("Table::Insert: column count mismatch");
  }
  if (size_ == capacity_) {
    Grow();
  }
  std::byte* target = RowAt(size_);
  std::memcpy(target, &timestamp_ms, sizeof(timestamp_ms));
  std::uninitialized_move_n(row.begin(), width_, Cells(target));
  ++size_;
}

void Table::EvictBefore(int64_t cutoff_ms) {
  while (head_ < size_ && timestamp(0) < cutoff_ms) {
    std::destroy_n(Cells(RowAt(head_)), width_);
    ++head_;
  }
  // Compacting moves at most as many live rows as were evicted since the
  // last compaction, and only into evicted (raw) slots: there are at most
  // head_ live rows.
  if (head_ != 0 && 2 * head_ >= size_) {
    MoveLiveRowsTo(rows_);
  }
}

}  // namespace privapprox::localdb
