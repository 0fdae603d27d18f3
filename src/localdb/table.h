// In-memory typed table with optional time-ordered retention — the shape of
// a client's private data stream (e.g. a vehicle's speed readings or a
// household's meter readings, timestamped and windowed).
//
// A fleet holds one such table per simulated client, so a table stores its
// rows at their natural width: one buffer of rows, each an int64 timestamp
// followed by one 16-byte Value per column — 40 bytes for a two-column
// reading, with no vector per row. The name and columns form an immutable
// schema shared by every table created with the same name and columns.

#ifndef PRIVAPPROX_LOCALDB_TABLE_H_
#define PRIVAPPROX_LOCALDB_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "localdb/value.h"

namespace privapprox::localdb {

class Table {
 public:
  // Throws std::invalid_argument for an empty name or no columns. Looking up
  // the shared schema takes no lock and allocates nothing when it matches
  // the schema this thread created a table with last.
  Table(std::string name, std::vector<std::string> columns);
  // Move-only; a moved-from table may only be destroyed.
  Table(Table&& other) noexcept;
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  ~Table();

  const std::string& name() const { return schema_->name; }
  const std::vector<std::string>& columns() const { return schema_->columns; }
  size_t num_rows() const { return size_ - head_; }

  // Column index by name; nullopt if absent.
  std::optional<size_t> ColumnIndex(const std::string& column) const;

  // Appends a row (must match the column count) with an event timestamp.
  void Insert(int64_t timestamp_ms, Row row);

  // Drops rows older than `cutoff_ms` (exclusive). Rows are kept in insert
  // order, which client streams guarantee to be time order. Amortized O(1)
  // per evicted row: eviction advances the head, and the buffer compacts
  // once evicted rows make up at least half of it.
  void EvictBefore(int64_t cutoff_ms);

  // Live row i, oldest first (i < num_rows()): its timestamp, and its cells
  // in column order. Invalidated by Insert and EvictBefore.
  int64_t timestamp(size_t i) const {
    int64_t timestamp_ms;
    std::memcpy(&timestamp_ms, RowAt(head_ + i), sizeof(timestamp_ms));
    return timestamp_ms;
  }
  std::span<const Value> row(size_t i) const {
    return {Cells(RowAt(head_ + i)), width_};
  }

 private:
  struct Schema {
    std::string name;
    std::vector<std::string> columns;
  };

  // The shared schema for `name` and `columns`; throws
  // std::invalid_argument for an empty name or no columns.
  static std::shared_ptr<const Schema> Intern(std::string name,
                                              std::vector<std::string> columns);
  static Value* Cells(std::byte* row) {
    return std::launder(reinterpret_cast<Value*>(row + sizeof(int64_t)));
  }
  size_t stride() const { return sizeof(int64_t) + width_ * sizeof(Value); }
  std::byte* RowAt(size_t slot) const { return rows_ + slot * stride(); }
  // Moves the live rows to the front of `dest`, whose slots there must be
  // raw, leaving their old slots raw; the head becomes 0.
  void MoveLiveRowsTo(std::byte* dest);
  void Grow();

  std::shared_ptr<const Schema> schema_;
  size_t width_ = 0;  // schema_->columns.size(), kept beside the rows
  // capacity_ row slots; slots [head_, size_) hold the live rows, the rest
  // are raw storage. Evicted rows are destroyed as the head passes them.
  std::byte* rows_ = nullptr;
  size_t head_ = 0;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace privapprox::localdb

#endif  // PRIVAPPROX_LOCALDB_TABLE_H_
