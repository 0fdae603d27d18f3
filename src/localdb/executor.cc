#include "localdb/executor.h"

#include <algorithm>
#include <utility>

namespace privapprox::localdb {
namespace {

size_t ResolveColumn(const Table& table, const std::string& column) {
  const auto index = table.ColumnIndex(column);
  if (!index.has_value()) {
    throw SqlError("unknown column '" + column + "' in table '" +
                   table.name() + "'");
  }
  return *index;
}

}  // namespace

QueryPlan::QueryPlan(SelectStatement stmt)
    : aggregate_(stmt.aggregate),
      table_(std::move(stmt.table)),
      column_(stmt.count_star ? std::string() : std::move(stmt.column)),
      where_(stmt.has_where
                 ? std::make_unique<const Predicate>(std::move(stmt.where))
                 : nullptr) {}

std::optional<size_t> QueryPlan::Bind(const Table& table) const {
  if (table_ != table.name()) {
    throw SqlError("unknown table '" + table_ + "'");
  }
  if (column_.empty()) {
    return std::nullopt;
  }
  return ResolveColumn(table, column_);
}

namespace {

enum class Truth : uint8_t { kFalse, kTrue, kUnknown };

// lhs op rhs; unknown when a string meets a number.
Truth Compare(CompareOp op, const Value& lhs, const Value& rhs) {
  if (lhs.IsString() != rhs.IsString()) {
    return Truth::kUnknown;
  }
  const int cmp = lhs.Compare(rhs);
  bool holds = false;
  switch (op) {
    case CompareOp::kEq:
      holds = cmp == 0;
      break;
    case CompareOp::kNe:
      holds = cmp != 0;
      break;
    case CompareOp::kLt:
      holds = cmp < 0;
      break;
    case CompareOp::kLe:
      holds = cmp <= 0;
      break;
    case CompareOp::kGt:
      holds = cmp > 0;
      break;
    case CompareOp::kGe:
      holds = cmp >= 0;
      break;
  }
  return holds ? Truth::kTrue : Truth::kFalse;
}

// Kleene OR of the operands `truth_of` yields for `items`; AND swaps the
// roles of true and false. `dominant` decides the result on sight.
template <typename Items, typename TruthOf>
Truth Fold(Truth dominant, const Items& items, TruthOf truth_of) {
  Truth result = dominant == Truth::kTrue ? Truth::kFalse : Truth::kTrue;
  for (const auto& item : items) {
    const Truth truth = truth_of(item);
    if (truth == dominant) {
      return dominant;
    }
    if (truth == Truth::kUnknown) {
      result = Truth::kUnknown;
    }
  }
  return result;
}

Truth Evaluate(const Predicate& predicate, const Table& table,
               std::span<const Value> row) {
  const auto child = [&](const Predicate& c) {
    return Evaluate(c, table, row);
  };
  switch (predicate.kind) {
    case Predicate::Kind::kComparison:
      return Compare(predicate.op, row[ResolveColumn(table, predicate.column)],
                     predicate.literal);
    case Predicate::Kind::kAnd:
      return Fold(Truth::kFalse, predicate.children, child);
    case Predicate::Kind::kOr:
      return Fold(Truth::kTrue, predicate.children, child);
    case Predicate::Kind::kNot: {
      const Truth truth = child(predicate.children.front());
      return truth == Truth::kUnknown
                 ? Truth::kUnknown
                 : (truth == Truth::kTrue ? Truth::kFalse : Truth::kTrue);
    }
    case Predicate::Kind::kIn: {
      // x IN (a, b, ...) is x = a OR x = b OR ...
      const Value& value = row[ResolveColumn(table, predicate.column)];
      return Fold(Truth::kTrue, predicate.literal_set,
                  [&](const Value& literal) {
                    return Compare(CompareOp::kEq, value, literal);
                  });
    }
    case Predicate::Kind::kBetween: {
      // Inclusive on both ends: lo <= x AND x <= hi.
      const Value& value = row[ResolveColumn(table, predicate.column)];
      const Truth lower = Compare(CompareOp::kGe, value, predicate.between_lo);
      const Truth upper = Compare(CompareOp::kLe, value, predicate.between_hi);
      if (lower == Truth::kFalse || upper == Truth::kFalse) {
        return Truth::kFalse;
      }
      return lower == Truth::kTrue && upper == Truth::kTrue ? Truth::kTrue
                                                            : Truth::kUnknown;
    }
  }
  return Truth::kFalse;
}

}  // namespace

bool QueryPlan::Matches(const Table& table,
                        std::span<const Value> row) const {
  return where_ == nullptr || Evaluate(*where_, table, row) == Truth::kTrue;
}

void QueryPlan::Accumulate(Totals& totals, std::span<const Value> row,
                           std::optional<size_t> column) const {
  if (aggregate_ != Aggregate::kCount) {
    const Value& value = row[*column];
    if (!value.IsNumeric()) {
      throw SqlError("aggregate over non-numeric column '" + column_ + "'");
    }
    const double x = value.AsDouble();
    totals.sum += x;
    totals.min = std::min(totals.min, x);
    totals.max = std::max(totals.max, x);
  }
  ++totals.count;
}

std::optional<Value> QueryPlan::Result(const Totals& totals) const {
  if (aggregate_ == Aggregate::kCount) {
    return Value(static_cast<int64_t>(totals.count));
  }
  if (totals.count == 0) {
    return std::nullopt;
  }
  switch (aggregate_) {
    case Aggregate::kSum:
      return Value(totals.sum);
    case Aggregate::kAvg:
      return Value(totals.sum / static_cast<double>(totals.count));
    case Aggregate::kMin:
      return Value(totals.min);
    case Aggregate::kMax:
      return Value(totals.max);
    case Aggregate::kNone:
    case Aggregate::kCount:
      break;
  }
  return std::nullopt;
}

std::vector<Value> ExecuteSelect(const QueryPlan& plan, const Table& table,
                                 int64_t from_ms, int64_t to_ms) {
  std::vector<Value> values;
  plan.Scan(table, from_ms, to_ms, [&values](const Value& value) {
    values.push_back(value);
    return true;
  });
  return values;
}

std::vector<Value> ExecuteSelect(const SelectStatement& stmt,
                                 const Table& table, int64_t from_ms,
                                 int64_t to_ms) {
  return ExecuteSelect(QueryPlan(stmt), table, from_ms, to_ms);
}

}  // namespace privapprox::localdb
