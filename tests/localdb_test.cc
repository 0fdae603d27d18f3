// Tests for the client-local database: values, tables with time-ordered
// retention, the SQL subset parser, and the executor.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "localdb/database.h"
#include "localdb/executor.h"
#include "localdb/sql.h"

namespace privapprox::localdb {
namespace {

// --------------------------------------------------------------------- Value

TEST(ValueTest, TypePredicates) {
  EXPECT_TRUE(Value(int64_t{5}).IsInt());
  EXPECT_TRUE(Value(5.0).IsDouble());
  EXPECT_TRUE(Value("x").IsString());
  EXPECT_TRUE(Value(int64_t{5}).IsNumeric());
  EXPECT_FALSE(Value("x").IsNumeric());
}

TEST(ValueTest, NumericCoercionInComparison) {
  EXPECT_EQ(Value(int64_t{5}).Compare(Value(5.0)), 0);
  EXPECT_LT(Value(int64_t{4}).Compare(Value(4.5)), 0);
  EXPECT_GT(Value(9.1).Compare(Value(int64_t{9})), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value("apple").Compare(Value("banana")), 0);
  EXPECT_EQ(Value("x").Compare(Value("x")), 0);
}

TEST(ValueTest, MixedTypeComparisonThrows) {
  EXPECT_THROW(Value("5").Compare(Value(int64_t{5})), std::invalid_argument);
}

TEST(ValueTest, AccessorsValidateType) {
  EXPECT_EQ(Value(3.9).AsInt(), 3);
  EXPECT_DOUBLE_EQ(Value(int64_t{7}).AsDouble(), 7.0);
  EXPECT_THROW(Value("s").AsDouble(), std::invalid_argument);
  EXPECT_THROW(Value(1.0).AsString(), std::invalid_argument);
}

TEST(ValueTest, AsIntRejectsDoublesOutsideInt64) {
  EXPECT_EQ(Value(-3.9).AsInt(), -3);
  EXPECT_EQ(Value(-0x1p63).AsInt(), std::numeric_limits<int64_t>::min());
  EXPECT_THROW(Value(0x1p63).AsInt(), std::invalid_argument);
  EXPECT_THROW(Value(1e30).AsInt(), std::invalid_argument);
  EXPECT_THROW(Value(-1e30).AsInt(), std::invalid_argument);
  EXPECT_THROW(Value(std::numeric_limits<double>::infinity()).AsInt(),
               std::invalid_argument);
  EXPECT_THROW(Value(std::nan("")).AsInt(), std::invalid_argument);
  EXPECT_THROW(Value("7").AsInt(), std::invalid_argument);
}

TEST(ValueTest, CopiesAcrossTags) {
  const Value text("a string longer than the small-string buffer");
  Value number(int64_t{42});
  number = text;  // number -> string
  EXPECT_EQ(number.AsString(), text.AsString());
  number = Value(2.5);  // string -> number
  EXPECT_DOUBLE_EQ(number.AsDouble(), 2.5);
  Value other("short");
  other = text;  // string -> string
  EXPECT_EQ(other.AsString(), text.AsString());
  Value copy(other);
  other = Value(int64_t{1});
  EXPECT_EQ(copy.AsString(), text.AsString());  // the copy owns its bytes
  EXPECT_EQ(other.AsInt(), 1);
}

TEST(ValueTest, MovesAcrossTags) {
  Value text("moved string value, heap-allocated by std::string");
  Value target(int64_t{3});
  target = std::move(text);  // number <- string
  EXPECT_EQ(target.AsString(), "moved string value, heap-allocated by std::string");
  // A moved-from value holds the integer 0 and stays usable.
  EXPECT_TRUE(text.IsInt());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(text.AsInt(), 0);
  text = Value("reused");
  EXPECT_EQ(text.AsString(), "reused");
  target = Value(7.5);  // string <- number
  EXPECT_DOUBLE_EQ(target.AsDouble(), 7.5);
  Value constructed(std::move(text));
  EXPECT_EQ(constructed.AsString(), "reused");
  EXPECT_EQ(text.Compare(Value(int64_t{0})), 0);  // NOLINT(bugprone-use-after-move)
  Value number(9.25);
  Value from_number(std::move(number));
  EXPECT_DOUBLE_EQ(from_number.AsDouble(), 9.25);
  EXPECT_EQ(number.AsInt(), 0);  // NOLINT(bugprone-use-after-move)
}

TEST(ValueTest, SelfAssignmentKeepsTheValue) {
  Value text("self");
  Value& alias = text;
  text = alias;
  EXPECT_EQ(text.AsString(), "self");
  text = std::move(alias);
  EXPECT_EQ(text.AsString(), "self");
  Value number(int64_t{-5});
  Value& number_alias = number;
  number = number_alias;
  number = std::move(number_alias);
  EXPECT_EQ(number.AsInt(), -5);
}

// --------------------------------------------------------------------- Table

TEST(TableTest, InsertAndRange) {
  Table table("t", {"a", "b"});
  table.Insert(100, {Value(int64_t{1}), Value("x")});
  table.Insert(200, {Value(int64_t{2}), Value("y")});
  table.Insert(300, {Value(int64_t{3}), Value("z")});
  EXPECT_EQ(table.num_rows(), 3u);
  // The time range is half-open: [150, 300) holds only the row at 200.
  const auto values = ExecuteSelect(ParseSql("SELECT a FROM t"), table, 150,
                                    300);
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0].AsInt(), 2);
}

TEST(TableTest, EvictBeforeDropsOldRows) {
  Table table("t", {"a"});
  for (int64_t ts = 0; ts < 10; ++ts) {
    table.Insert(ts, {Value(ts)});
  }
  // Evicting under half the buffer only advances past the old rows; past
  // half, the buffer compacts. Either way the live rows stay in order.
  table.EvictBefore(2);
  EXPECT_EQ(table.num_rows(), 8u);
  EXPECT_EQ(table.timestamp(0), 2);
  table.EvictBefore(7);
  EXPECT_EQ(table.num_rows(), 3u);
  EXPECT_EQ(table.timestamp(0), 7);
  table.Insert(10, {Value(int64_t{10})});
  std::vector<int64_t> live;
  for (size_t i = 0; i < table.num_rows(); ++i) {
    live.push_back(table.row(i)[0].AsInt());
  }
  EXPECT_EQ(live, (std::vector<int64_t>{7, 8, 9, 10}));
}

TEST(TableTest, ValidatesConstruction) {
  EXPECT_THROW(Table("", {"a"}), std::invalid_argument);
  EXPECT_THROW(Table("t", {}), std::invalid_argument);
  Table table("t", {"a"});
  EXPECT_THROW(table.Insert(0, {Value(int64_t{1}), Value(int64_t{2})}),
               std::invalid_argument);
}

TEST(TableTest, EqualSchemasAreSharedAcrossThreads) {
  // Tables created with the same name and columns share one schema, on
  // whichever thread they were created; alternating two schemas misses
  // each thread's last-schema fast path every time.
  constexpr int kThreads = 4;
  constexpr int kTables = 50;
  std::vector<std::vector<Table>> tables(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tables, t] {
      for (int i = 0; i < kTables; ++i) {
        tables[t].push_back(i % 2 == 0 ? Table("vehicle", {"speed", "load"})
                                       : Table("meter", {"kwh"}));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const Table vehicle("vehicle", {"speed", "load"});
  const Table meter("meter", {"kwh"});
  const Table other("vehicle", {"speed"});
  EXPECT_NE(&other.columns(), &vehicle.columns());
  for (const std::vector<Table>& list : tables) {
    for (size_t i = 0; i < list.size(); ++i) {
      const Table& expected = i % 2 == 0 ? vehicle : meter;
      EXPECT_EQ(&list[i].columns(), &expected.columns());
      EXPECT_EQ(&list[i].name(), &expected.name());
    }
  }
}

TEST(TableTest, ColumnIndexLookup) {
  Table table("t", {"x", "y"});
  EXPECT_EQ(table.ColumnIndex("y").value(), 1u);
  EXPECT_FALSE(table.ColumnIndex("z").has_value());
}

// A Table checked against the plain row model it replaced: a vector of
// (timestamp, row) pairs. Each step inserts a row or evicts, and after
// every step the table must hold exactly the model's rows and answer every
// query over them as the model does.
class FlatTableModel {
 public:
  FlatTableModel(size_t width, uint64_t seed) : width_(width), rng_(seed) {
    for (size_t c = 0; c < width; ++c) {
      columns_.push_back("c" + std::to_string(c));
    }
  }

  const std::vector<std::string>& columns() const { return columns_; }

  void Insert(Table& table) {
    next_ts_ += static_cast<int64_t>(rng_() % 3);  // repeats are allowed
    Row row;
    for (size_t c = 0; c < width_; ++c) {
      row.push_back(RandomCell());
    }
    model_.emplace_back(next_ts_, row);
    table.Insert(next_ts_, std::move(row));
  }

  void EvictBefore(Table& table, int64_t cutoff_ms) {
    size_t evicted = 0;
    while (evicted < model_.size() && model_[evicted].first < cutoff_ms) {
      ++evicted;
    }
    model_.erase(model_.begin(), model_.begin() + static_cast<long>(evicted));
    table.EvictBefore(cutoff_ms);
  }

  // A cutoff that evicts none, some, or all of the model's rows.
  int64_t RandomCutoff() {
    if (model_.empty()) {
      return next_ts_;
    }
    switch (rng_() % 3) {
      case 0:
        return model_.front().first;  // none
      case 1:
        return model_[rng_() % model_.size()].first + 1;  // some
      default:
        return next_ts_ + 1;  // all
    }
  }

  void ExpectMatches(const Table& table) {
    ASSERT_EQ(table.num_rows(), model_.size());
    for (size_t i = 0; i < model_.size(); ++i) {
      ASSERT_EQ(table.timestamp(i), model_[i].first) << "row " << i;
      const std::span<const Value> row = table.row(i);
      ASSERT_EQ(row.size(), width_);
      for (size_t c = 0; c < width_; ++c) {
        ExpectSame(row[c], model_[i].second[c]);
      }
    }
    for (int q = 0; q < 4; ++q) {
      const int64_t from = RandomTime();
      const int64_t to = RandomTime();
      const size_t c = rng_() % width_;
      ExpectQuery(table, "SELECT " + columns_[c] + " FROM t", c, std::nullopt,
                  Aggregate::kNone, from, to);
      const int64_t threshold = static_cast<int64_t>(rng_() % 100);
      ExpectQuery(table,
                  "SELECT " + columns_[c] + " FROM t WHERE c0 >= " +
                      std::to_string(threshold),
                  c, threshold, Aggregate::kNone, from, to);
      for (const auto& [fn, aggregate] :
           {std::pair{"SUM", Aggregate::kSum}, std::pair{"AVG", Aggregate::kAvg},
            std::pair{"MIN", Aggregate::kMin}, std::pair{"MAX", Aggregate::kMax},
            std::pair{"COUNT", Aggregate::kCount}}) {
        ExpectQuery(table,
                    std::string("SELECT ") + fn + "(" + columns_[c] + ") FROM t",
                    c, std::nullopt, aggregate, from, to);
      }
    }
  }

 private:
  Value RandomCell() {
    switch (rng_() % 4) {
      case 0:
        return Value(static_cast<int64_t>(rng_() % 100));
      case 1:
        return Value("s" + std::to_string(rng_() % 100));
      default:
        return Value(static_cast<double>(rng_() % 1000) / 8.0);
    }
  }

  int64_t RandomTime() {
    return static_cast<int64_t>(rng_() % static_cast<uint64_t>(next_ts_ + 4)) -
           2;
  }

  static void ExpectSame(const Value& actual, const Value& expected) {
    ASSERT_EQ(actual.IsInt(), expected.IsInt());
    ASSERT_EQ(actual.IsDouble(), expected.IsDouble());
    ASSERT_EQ(actual.IsString(), expected.IsString());
    EXPECT_EQ(actual.Compare(expected), 0)
        << actual.ToString() << " != " << expected.ToString();
  }

  // The model's answer to SELECT [agg](column) FROM t [WHERE c0 >= min_c0]
  // over [from, to); a non-numeric aggregate input throws SqlError.
  void ExpectQuery(const Table& table, const std::string& sql, size_t column,
                   std::optional<int64_t> min_c0, Aggregate aggregate,
                   int64_t from, int64_t to) {
    SCOPED_TRACE(sql + " over [" + std::to_string(from) + ", " +
                 std::to_string(to) + ")");
    std::vector<Value> selected;
    bool non_numeric = false;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
    for (const auto& [ts, row] : model_) {
      if (ts < from || ts >= to) {
        continue;
      }
      if (min_c0.has_value() &&
          (row[0].IsString() || row[0].Compare(Value(*min_c0)) < 0)) {
        continue;
      }
      selected.push_back(row[column]);
      if (row[column].IsString()) {
        non_numeric = true;
      } else {
        sum += row[column].AsDouble();
        min = std::min(min, row[column].AsDouble());
        max = std::max(max, row[column].AsDouble());
      }
    }
    std::vector<Value> expected;
    switch (aggregate) {
      case Aggregate::kNone:
        expected = selected;
        break;
      case Aggregate::kCount:
        expected = {Value(static_cast<int64_t>(selected.size()))};
        break;
      default:
        if (non_numeric) {
          EXPECT_THROW(ExecuteSelect(ParseSql(sql), table, from, to), SqlError);
          return;
        }
        if (!selected.empty()) {
          const double n = static_cast<double>(selected.size());
          expected = {Value(aggregate == Aggregate::kSum   ? sum
                            : aggregate == Aggregate::kAvg ? sum / n
                            : aggregate == Aggregate::kMin ? min
                                                           : max)};
        }
        break;
    }
    const std::vector<Value> actual =
        ExecuteSelect(ParseSql(sql), table, from, to);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i) {
      ExpectSame(actual[i], expected[i]);
    }
  }

  size_t width_;
  std::mt19937_64 rng_;
  std::vector<std::string> columns_;
  std::vector<std::pair<int64_t, Row>> model_;
  int64_t next_ts_ = 0;
};

TEST(TableTest, FlatRowsMatchRowModel) {
  for (size_t width = 1; width <= 3; ++width) {
    // Seeded random walks: inserts outnumber evictions two to one.
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("width " + std::to_string(width) + ", seed " +
                   std::to_string(seed));
      FlatTableModel model(width, seed);
      Table table("t", model.columns());
      std::mt19937_64 steps(seed * 7919);
      for (int step = 0; step < 150; ++step) {
        if (steps() % 3 != 0) {
          model.Insert(table);
        } else {
          model.EvictBefore(table, model.RandomCutoff());
        }
        model.ExpectMatches(table);
      }
    }
    // Every compaction boundary: k of n rows evicted for every k <= n, on
    // either side of 2k >= n, then a second round of inserts and evictions
    // over the compacted (or not) buffer.
    for (size_t n = 1; n <= 9; ++n) {
      for (size_t k = 0; k <= n; ++k) {
        SCOPED_TRACE("width " + std::to_string(width) + ", " +
                     std::to_string(k) + " of " + std::to_string(n));
        FlatTableModel model(width, n * 31 + k);
        Table table("t", model.columns());
        std::vector<int64_t> stamps;
        for (size_t i = 0; i < n; ++i) {
          model.Insert(table);
          stamps.push_back(table.timestamp(table.num_rows() - 1));
        }
        // Evicting before the k-th stamp drops every row stamped earlier;
        // with repeated stamps that can be fewer than k rows.
        model.EvictBefore(table, k < n ? stamps[k] : stamps.back() + 1);
        model.ExpectMatches(table);
        for (size_t i = 0; i < n; ++i) {
          model.Insert(table);
        }
        model.ExpectMatches(table);
        model.EvictBefore(table, model.RandomCutoff());
        model.ExpectMatches(table);
      }
    }
  }
}

// ----------------------------------------------------------------- SQL parse

TEST(SqlParserTest, SimpleSelect) {
  const SelectStatement stmt = ParseSql("SELECT speed FROM vehicle");
  EXPECT_EQ(stmt.column, "speed");
  EXPECT_EQ(stmt.table, "vehicle");
  EXPECT_EQ(stmt.aggregate, Aggregate::kNone);
  EXPECT_FALSE(stmt.has_where);
}

TEST(SqlParserTest, PaperExampleQuery) {
  const SelectStatement stmt = ParseSql(
      "SELECT speed FROM vehicle WHERE location='San Francisco'");
  EXPECT_TRUE(stmt.has_where);
  EXPECT_EQ(stmt.where.kind, Predicate::Kind::kComparison);
  EXPECT_EQ(stmt.where.column, "location");
  EXPECT_EQ(stmt.where.op, CompareOp::kEq);
  EXPECT_EQ(stmt.where.literal.AsString(), "San Francisco");
}

TEST(SqlParserTest, Aggregates) {
  EXPECT_EQ(ParseSql("SELECT SUM(kwh) FROM meter").aggregate, Aggregate::kSum);
  EXPECT_EQ(ParseSql("SELECT avg(x) FROM t").aggregate, Aggregate::kAvg);
  EXPECT_EQ(ParseSql("SELECT MIN(x) FROM t").aggregate, Aggregate::kMin);
  EXPECT_EQ(ParseSql("SELECT MAX(x) FROM t").aggregate, Aggregate::kMax);
  const SelectStatement count = ParseSql("SELECT COUNT(*) FROM t");
  EXPECT_EQ(count.aggregate, Aggregate::kCount);
  EXPECT_TRUE(count.count_star);
}

TEST(SqlParserTest, CaseInsensitiveKeywords) {
  EXPECT_NO_THROW(ParseSql("select a from t where b = 1"));
}

TEST(SqlParserTest, ColumnNamedLikeAggregate) {
  // "sum" without parentheses is a plain column name.
  const SelectStatement stmt = ParseSql("SELECT sum FROM t");
  EXPECT_EQ(stmt.aggregate, Aggregate::kNone);
  EXPECT_EQ(stmt.column, "sum");
}

TEST(SqlParserTest, AllComparisonOperators) {
  EXPECT_EQ(ParseSql("SELECT a FROM t WHERE a != 1").where.op, CompareOp::kNe);
  EXPECT_EQ(ParseSql("SELECT a FROM t WHERE a <> 1").where.op, CompareOp::kNe);
  EXPECT_EQ(ParseSql("SELECT a FROM t WHERE a < 1").where.op, CompareOp::kLt);
  EXPECT_EQ(ParseSql("SELECT a FROM t WHERE a <= 1").where.op, CompareOp::kLe);
  EXPECT_EQ(ParseSql("SELECT a FROM t WHERE a > 1").where.op, CompareOp::kGt);
  EXPECT_EQ(ParseSql("SELECT a FROM t WHERE a >= 1").where.op, CompareOp::kGe);
}

TEST(SqlParserTest, BooleanPrecedenceAndParens) {
  // AND binds tighter than OR.
  const SelectStatement stmt =
      ParseSql("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3");
  EXPECT_EQ(stmt.where.kind, Predicate::Kind::kOr);
  ASSERT_EQ(stmt.where.children.size(), 2u);
  EXPECT_EQ(stmt.where.children[1].kind, Predicate::Kind::kAnd);
  const SelectStatement grouped =
      ParseSql("SELECT a FROM t WHERE (a = 1 OR b = 2) AND c = 3");
  EXPECT_EQ(grouped.where.kind, Predicate::Kind::kAnd);
}

TEST(SqlParserTest, NumericLiterals) {
  const SelectStatement ints = ParseSql("SELECT a FROM t WHERE a = 42");
  EXPECT_TRUE(ints.where.literal.IsInt());
  const SelectStatement doubles = ParseSql("SELECT a FROM t WHERE a = 4.5");
  EXPECT_TRUE(doubles.where.literal.IsDouble());
  const SelectStatement negatives = ParseSql("SELECT a FROM t WHERE a > -3");
  EXPECT_EQ(negatives.where.literal.AsInt(), -3);
}

TEST(SqlParserTest, IntegerLiteralsAreExact) {
  EXPECT_EQ(ParseSql("SELECT a FROM t WHERE a = 9223372036854775807")
                .where.literal.AsInt(),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(ParseSql("SELECT a FROM t WHERE a = -9223372036854775808")
                .where.literal.AsInt(),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(ParseSql("SELECT a FROM t WHERE a = 9007199254740993")
                .where.literal.AsInt(),
            int64_t{9007199254740993});  // 2^53 + 1: no double holds it
}

TEST(SqlParserTest, IntegerLiteralOutsideInt64ReadsAsDouble) {
  // As SQLite reads it: REAL, not an int64 that wrapped.
  const Value big = ParseSql(
      "SELECT a FROM t WHERE a >= 99999999999999999999999").where.literal;
  ASSERT_TRUE(big.IsDouble());
  EXPECT_DOUBLE_EQ(big.AsDouble(), 1e23);
  const Value small = ParseSql(
      "SELECT a FROM t WHERE a > -9223372036854775809").where.literal;
  ASSERT_TRUE(small.IsDouble());
  EXPECT_DOUBLE_EQ(small.AsDouble(), -0x1p63);

  Table table("vehicle", {"speed"});
  table.Insert(0, {Value(int64_t{10})});
  table.Insert(1, {Value(10.0)});
  EXPECT_TRUE(ExecuteSelect(
                  ParseSql("SELECT speed FROM vehicle WHERE speed >= "
                           "99999999999999999999999"),
                  table, INT64_MIN, INT64_MAX)
                  .empty());
  EXPECT_EQ(ExecuteSelect(ParseSql("SELECT speed FROM vehicle WHERE speed > "
                                   "-99999999999999999999999"),
                          table, INT64_MIN, INT64_MAX)
                .size(),
            2u);
}

TEST(SqlParserTest, SyntaxErrorsThrow) {
  EXPECT_THROW(ParseSql(""), SqlError);
  EXPECT_THROW(ParseSql("SELEC a FROM t"), SqlError);
  EXPECT_THROW(ParseSql("SELECT FROM t"), SqlError);
  EXPECT_THROW(ParseSql("SELECT a"), SqlError);
  EXPECT_THROW(ParseSql("SELECT a FROM t WHERE"), SqlError);
  EXPECT_THROW(ParseSql("SELECT a FROM t WHERE a ="), SqlError);
  EXPECT_THROW(ParseSql("SELECT a FROM t WHERE a = 'oops"), SqlError);
  EXPECT_THROW(ParseSql("SELECT a FROM t trailing"), SqlError);
  EXPECT_THROW(ParseSql("SELECT a FROM t WHERE a = 1 ;"), SqlError);
  EXPECT_THROW(ParseSql("SELECT SUM(a FROM t"), SqlError);
}

// ------------------------------------------------------------------ executor

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<Table>(
        "rides", std::vector<std::string>{"distance", "borough"});
    table_->Insert(10, {Value(0.5), Value("manhattan")});
    table_->Insert(20, {Value(2.5), Value("brooklyn")});
    table_->Insert(30, {Value(7.0), Value("manhattan")});
    table_->Insert(40, {Value(12.0), Value("queens")});
  }
  std::unique_ptr<Table> table_;
};

TEST_F(ExecutorTest, SelectAllValues) {
  const auto values = ExecuteSelect(ParseSql("SELECT distance FROM rides"),
                                    *table_, INT64_MIN, INT64_MAX);
  ASSERT_EQ(values.size(), 4u);
  EXPECT_DOUBLE_EQ(values[0].AsDouble(), 0.5);
}

TEST_F(ExecutorTest, WhereFilters) {
  const auto values = ExecuteSelect(
      ParseSql("SELECT distance FROM rides WHERE borough = 'manhattan'"),
      *table_, INT64_MIN, INT64_MAX);
  ASSERT_EQ(values.size(), 2u);
  EXPECT_DOUBLE_EQ(values[1].AsDouble(), 7.0);
}

TEST_F(ExecutorTest, TimeRangeFilters) {
  const auto values = ExecuteSelect(ParseSql("SELECT distance FROM rides"),
                                    *table_, 15, 35);
  ASSERT_EQ(values.size(), 2u);
}

TEST_F(ExecutorTest, CompoundPredicate) {
  const auto values = ExecuteSelect(
      ParseSql("SELECT distance FROM rides WHERE distance >= 2 AND "
               "distance < 10"),
      *table_, INT64_MIN, INT64_MAX);
  ASSERT_EQ(values.size(), 2u);
}

TEST_F(ExecutorTest, OrPredicate) {
  const auto values = ExecuteSelect(
      ParseSql("SELECT distance FROM rides WHERE borough = 'queens' OR "
               "distance < 1"),
      *table_, INT64_MIN, INT64_MAX);
  ASSERT_EQ(values.size(), 2u);
}

TEST_F(ExecutorTest, AggregateFunctions) {
  auto run = [&](const std::string& sql) {
    return ExecuteSelect(ParseSql(sql), *table_, INT64_MIN, INT64_MAX);
  };
  EXPECT_DOUBLE_EQ(run("SELECT SUM(distance) FROM rides")[0].AsDouble(), 22.0);
  EXPECT_DOUBLE_EQ(run("SELECT AVG(distance) FROM rides")[0].AsDouble(), 5.5);
  EXPECT_DOUBLE_EQ(run("SELECT MIN(distance) FROM rides")[0].AsDouble(), 0.5);
  EXPECT_DOUBLE_EQ(run("SELECT MAX(distance) FROM rides")[0].AsDouble(), 12.0);
  EXPECT_EQ(run("SELECT COUNT(*) FROM rides")[0].AsInt(), 4);
}

TEST_F(ExecutorTest, AggregateOverEmptySelection) {
  const auto sum = ExecuteSelect(
      ParseSql("SELECT SUM(distance) FROM rides WHERE distance > 100"),
      *table_, INT64_MIN, INT64_MAX);
  EXPECT_TRUE(sum.empty());
  const auto count = ExecuteSelect(
      ParseSql("SELECT COUNT(*) FROM rides WHERE distance > 100"), *table_,
      INT64_MIN, INT64_MAX);
  ASSERT_EQ(count.size(), 1u);
  EXPECT_EQ(count[0].AsInt(), 0);
}

TEST_F(ExecutorTest, UnknownColumnOrTableThrows) {
  EXPECT_THROW(ExecuteSelect(ParseSql("SELECT nope FROM rides"), *table_,
                             INT64_MIN, INT64_MAX),
               SqlError);
  EXPECT_THROW(ExecuteSelect(ParseSql("SELECT distance FROM nope"), *table_,
                             INT64_MIN, INT64_MAX),
               SqlError);
  EXPECT_THROW(
      ExecuteSelect(ParseSql("SELECT distance FROM rides WHERE ghost = 1"),
                    *table_, INT64_MIN, INT64_MAX),
      SqlError);
}

TEST_F(ExecutorTest, AggregateOverStringColumnThrows) {
  EXPECT_THROW(ExecuteSelect(ParseSql("SELECT SUM(borough) FROM rides"),
                             *table_, INT64_MIN, INT64_MAX),
               SqlError);
}

TEST(SqlParserTest, NotInBetween) {
  const SelectStatement negated =
      ParseSql("SELECT a FROM t WHERE NOT a = 1");
  EXPECT_EQ(negated.where.kind, Predicate::Kind::kNot);
  ASSERT_EQ(negated.where.children.size(), 1u);
  EXPECT_EQ(negated.where.children[0].kind, Predicate::Kind::kComparison);

  const SelectStatement in_list =
      ParseSql("SELECT a FROM t WHERE b IN ('x', 'y', 'z')");
  EXPECT_EQ(in_list.where.kind, Predicate::Kind::kIn);
  EXPECT_EQ(in_list.where.literal_set.size(), 3u);
  EXPECT_EQ(in_list.where.literal_set[1].AsString(), "y");

  const SelectStatement between =
      ParseSql("SELECT a FROM t WHERE c BETWEEN 2 AND 5");
  EXPECT_EQ(between.where.kind, Predicate::Kind::kBetween);
  EXPECT_EQ(between.where.between_lo.AsInt(), 2);
  EXPECT_EQ(between.where.between_hi.AsInt(), 5);
}

TEST(SqlParserTest, NotBindsTighterThanAnd) {
  const SelectStatement stmt =
      ParseSql("SELECT a FROM t WHERE NOT a = 1 AND b = 2");
  EXPECT_EQ(stmt.where.kind, Predicate::Kind::kAnd);
  EXPECT_EQ(stmt.where.children[0].kind, Predicate::Kind::kNot);
}

TEST(SqlParserTest, DoubleNegation) {
  const SelectStatement stmt =
      ParseSql("SELECT a FROM t WHERE NOT NOT a = 1");
  EXPECT_EQ(stmt.where.kind, Predicate::Kind::kNot);
  EXPECT_EQ(stmt.where.children[0].kind, Predicate::Kind::kNot);
}

TEST(SqlParserTest, MalformedExtensionsThrow) {
  EXPECT_THROW(ParseSql("SELECT a FROM t WHERE b IN ()"), SqlError);
  EXPECT_THROW(ParseSql("SELECT a FROM t WHERE b IN (1,"), SqlError);
  EXPECT_THROW(ParseSql("SELECT a FROM t WHERE c BETWEEN 1"), SqlError);
  EXPECT_THROW(ParseSql("SELECT a FROM t WHERE NOT"), SqlError);
}

TEST_F(ExecutorTest, NotPredicate) {
  const auto values = ExecuteSelect(
      ParseSql("SELECT distance FROM rides WHERE NOT borough = 'manhattan'"),
      *table_, INT64_MIN, INT64_MAX);
  ASSERT_EQ(values.size(), 2u);
}

TEST_F(ExecutorTest, InPredicate) {
  const auto values = ExecuteSelect(
      ParseSql(
          "SELECT distance FROM rides WHERE borough IN ('queens', 'bronx')"),
      *table_, INT64_MIN, INT64_MAX);
  ASSERT_EQ(values.size(), 1u);
  EXPECT_DOUBLE_EQ(values[0].AsDouble(), 12.0);
}

TEST_F(ExecutorTest, BetweenPredicateIsInclusive) {
  const auto values = ExecuteSelect(
      ParseSql("SELECT distance FROM rides WHERE distance BETWEEN 2.5 AND 7"),
      *table_, INT64_MIN, INT64_MAX);
  ASSERT_EQ(values.size(), 2u);  // 2.5 and 7.0, both endpoints included
}

TEST_F(ExecutorTest, CombinedExtensions) {
  const auto values = ExecuteSelect(
      ParseSql("SELECT distance FROM rides WHERE distance BETWEEN 0 AND 10 "
               "AND NOT borough IN ('brooklyn')"),
      *table_, INT64_MIN, INT64_MAX);
  ASSERT_EQ(values.size(), 2u);  // manhattan rides at 0.5 and 7.0
}

TEST(ExecutorTypeMismatchTest, StringNumberComparisonIsUnknown) {
  // SQL compares a string with a number as it does NULL: unknown, so the
  // row does not match, NOT keeps it unknown, and OR/AND follow Kleene
  // logic — the same result whichever operand comes first.
  Table table("t", {"a", "b"});
  table.Insert(10, {Value("n/a"), Value(int64_t{1})});
  table.Insert(20, {Value(5.0), Value(int64_t{2})});
  const auto count = [&](const std::string& sql) {
    return ExecuteSelect(ParseSql(sql), table, INT64_MIN, INT64_MAX).size();
  };
  EXPECT_EQ(count("SELECT b FROM t WHERE a >= 1"), 1u);
  EXPECT_EQ(count("SELECT b FROM t WHERE NOT a >= 1"), 0u);
  EXPECT_EQ(count("SELECT b FROM t WHERE a >= 1 OR b = 1"), 2u);
  EXPECT_EQ(count("SELECT b FROM t WHERE b = 1 OR a >= 1"), 2u);
  EXPECT_EQ(count("SELECT b FROM t WHERE a >= 1 AND b = 1"), 0u);
  EXPECT_EQ(count("SELECT b FROM t WHERE a IN (5, 'n/a')"), 2u);
  EXPECT_EQ(count("SELECT b FROM t WHERE a BETWEEN 1 AND 10"), 1u);
  EXPECT_EQ(count("SELECT b FROM t WHERE NOT a BETWEEN 1 AND 10"), 0u);
}

TEST(QueryPlanTest, ScanStopsAtTheFirstValueWhenAsked) {
  Table table("t", {"a"});
  for (int64_t i = 0; i < 5; ++i) {
    table.Insert(i, {Value(i)});
  }
  const QueryPlan plan("SELECT a FROM t WHERE a >= 2");
  std::vector<int64_t> seen;
  plan.Scan(table, INT64_MIN, INT64_MAX, [&](const Value& value) {
    seen.push_back(value.AsInt());
    return false;
  });
  EXPECT_EQ(seen, std::vector<int64_t>{2});
  EXPECT_EQ(ExecuteSelect(plan, table, INT64_MIN, INT64_MAX).size(), 3u);
  EXPECT_THROW(QueryPlan("SELECT a FROM"), SqlError);
}

// ------------------------------------------------------------------ database

TEST(DatabaseTest, CreateAndQuery) {
  Database db;
  Table& table = db.CreateTable("meter", {"kwh"});
  table.Insert(0, {Value(1.5)});
  table.Insert(10, {Value(2.5)});
  const auto values = db.Execute("SELECT SUM(kwh) FROM meter");
  ASSERT_EQ(values.size(), 1u);
  EXPECT_DOUBLE_EQ(values[0].AsDouble(), 4.0);
}

TEST(DatabaseTest, DuplicateTableThrows) {
  Database db;
  db.CreateTable("t", {"a"});
  EXPECT_THROW(db.CreateTable("t", {"b"}), std::invalid_argument);
}

TEST(DatabaseTest, UnknownTableThrows) {
  Database db;
  EXPECT_THROW(db.Execute("SELECT a FROM missing"), SqlError);
  EXPECT_THROW(db.GetTable("missing"), std::invalid_argument);
  EXPECT_FALSE(db.HasTable("missing"));
}

TEST(DatabaseTest, EvictBeforeAppliesToAllTables) {
  Database db;
  db.CreateTable("a", {"x"}).Insert(5, {Value(int64_t{1})});
  db.CreateTable("b", {"x"}).Insert(15, {Value(int64_t{1})});
  db.EvictBefore(10);
  EXPECT_EQ(db.GetTable("a").num_rows(), 0u);
  EXPECT_EQ(db.GetTable("b").num_rows(), 1u);
}

}  // namespace
}  // namespace privapprox::localdb
