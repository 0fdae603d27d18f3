// Tests for the client-local database: values, tables with time-ordered
// retention, the SQL subset parser, and the executor.

#include <gtest/gtest.h>

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
  EXPECT_EQ(table.rows().front().timestamp_ms, 2);
  table.EvictBefore(7);
  EXPECT_EQ(table.num_rows(), 3u);
  EXPECT_EQ(table.rows().front().timestamp_ms, 7);
  table.Insert(10, {Value(int64_t{10})});
  std::vector<int64_t> live;
  for (const TimestampedRow& row : table.rows()) {
    live.push_back(row.values[0].AsInt());
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

TEST(TableTest, ColumnIndexLookup) {
  Table table("t", {"x", "y"});
  EXPECT_EQ(table.ColumnIndex("y").value(), 1u);
  EXPECT_FALSE(table.ColumnIndex("z").has_value());
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
