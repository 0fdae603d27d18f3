// Executes a parsed SELECT statement against a client's local table over a
// time range — the "query answering" module of the client (paper §5).

#ifndef PRIVAPPROX_LOCALDB_EXECUTOR_H_
#define PRIVAPPROX_LOCALDB_EXECUTOR_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "localdb/sql.h"
#include "localdb/table.h"

namespace privapprox::localdb {

// A SELECT compiled for repeated execution: parsed once — a client compiles
// each subscribed query when it subscribes. Scan is the only execution
// loop: ExecuteSelect and Database::Execute collect every result value from
// it, while a client's truthful answer stops at the first.
class QueryPlan {
 public:
  explicit QueryPlan(SelectStatement stmt);
  // Parses `sql`; throws SqlError like ParseSql.
  explicit QueryPlan(const std::string& sql) : QueryPlan(ParseSql(sql)) {}

  const std::string& table() const { return table_; }

  // Scans the rows of `table` with timestamps in [from_ms, to_ms) and calls
  // fn(const Value&) for each result value until fn returns false. A plain
  // SELECT yields each matching row's column value, in row order; an
  // aggregate yields its one value after the scan, or nothing when no row
  // matched and the aggregate is undefined (everything except COUNT).
  // Builds nothing on the heap. A WHERE comparison between a string and a
  // number is unknown, as SQL's NULL is: a row matches only when its WHERE
  // is true. Throws SqlError if `table` is not the statement's table, a
  // column is unknown, or an aggregate meets a non-numeric value.
  template <typename Fn>
  void Scan(const Table& table, int64_t from_ms, int64_t to_ms, Fn&& fn) const;

 private:
  // Running COUNT/SUM/AVG/MIN/MAX state of one scan.
  struct Totals {
    size_t count = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };

  // Checks the table and resolves the selected column (nullopt for
  // COUNT(*)).
  std::optional<size_t> Bind(const Table& table) const;
  bool Matches(const Table& table, std::span<const Value> row) const;
  void Accumulate(Totals& totals, std::span<const Value> row,
                  std::optional<size_t> column) const;
  std::optional<Value> Result(const Totals& totals) const;

  Aggregate aggregate_ = Aggregate::kNone;
  std::string table_;
  std::string column_;  // empty for COUNT(*)
  std::unique_ptr<const Predicate> where_;  // null: no WHERE clause
};

template <typename Fn>
void QueryPlan::Scan(const Table& table, int64_t from_ms, int64_t to_ms,
                     Fn&& fn) const {
  const std::optional<size_t> column = Bind(table);
  Totals totals;
  for (size_t i = 0, n = table.num_rows(); i < n; ++i) {
    const int64_t timestamp_ms = table.timestamp(i);
    if (timestamp_ms < from_ms || timestamp_ms >= to_ms) {
      continue;
    }
    const std::span<const Value> row = table.row(i);
    if (!Matches(table, row)) {
      continue;
    }
    if (aggregate_ != Aggregate::kNone) {
      Accumulate(totals, row, column);
    } else if (!fn(row[*column])) {
      return;
    }
  }
  if (aggregate_ != Aggregate::kNone) {
    if (const std::optional<Value> result = Result(totals)) {
      fn(*result);
    }
  }
}

// Executes `plan` over rows of `table` with timestamps in [from_ms, to_ms)
// and returns every value its Scan yields: all matching values of the
// column for a plain SELECT, or the single aggregate value (none when no
// rows match and the aggregate is undefined, i.e. everything except COUNT).
std::vector<Value> ExecuteSelect(const QueryPlan& plan, const Table& table,
                                 int64_t from_ms, int64_t to_ms);
std::vector<Value> ExecuteSelect(const SelectStatement& stmt,
                                 const Table& table, int64_t from_ms,
                                 int64_t to_ms);

}  // namespace privapprox::localdb

#endif  // PRIVAPPROX_LOCALDB_EXECUTOR_H_
