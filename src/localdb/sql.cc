#include "localdb/sql.h"

#include <cctype>
#include <charconv>
#include <sstream>

namespace privapprox::localdb {
namespace {

enum class TokenKind {
  kIdent,
  kNumber,
  kString,
  kSymbol,  // operators and punctuation
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;
  double number = 0.0;  // a kNumber that is not an integer
  bool is_integer = false;
  size_t position = 0;
  int64_t integer = 0;  // a kNumber that is an integer
};

class Lexer {
 public:
  explicit Lexer(const std::string& input) : input_(input) {}

  std::vector<Token> Tokenize() {
    std::vector<Token> tokens;
    while (pos_ < input_.size()) {
      const char c = input_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        tokens.push_back(LexIdent());
      } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                 (c == '-' && pos_ + 1 < input_.size() &&
                  std::isdigit(static_cast<unsigned char>(input_[pos_ + 1])))) {
        tokens.push_back(LexNumber());
      } else if (c == '\'') {
        tokens.push_back(LexString());
      } else {
        tokens.push_back(LexSymbol());
      }
    }
    tokens.push_back(Token{TokenKind::kEnd, "", 0.0, false, pos_});
    return tokens;
  }

 private:
  Token LexIdent() {
    const size_t start = pos_;
    while (pos_ < input_.size() &&
           (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
            input_[pos_] == '_')) {
      ++pos_;
    }
    return Token{TokenKind::kIdent, input_.substr(start, pos_ - start), 0.0,
                 false, start};
  }

  Token LexNumber() {
    const size_t start = pos_;
    if (input_[pos_] == '-') {
      ++pos_;
    }
    bool is_integer = true;
    while (pos_ < input_.size() &&
           (std::isdigit(static_cast<unsigned char>(input_[pos_])) ||
            input_[pos_] == '.')) {
      if (input_[pos_] == '.') {
        is_integer = false;
      }
      ++pos_;
    }
    Token token{TokenKind::kNumber, input_.substr(start, pos_ - start), 0.0,
                is_integer, start};
    if (is_integer) {
      // Exactly, as SQLite reads an integer literal; one outside int64
      // reads as a double (SQLite's REAL).
      const char* end = token.text.data() + token.text.size();
      if (std::from_chars(token.text.data(), end, token.integer).ec ==
          std::errc()) {
        return token;
      }
      token.is_integer = false;
    }
    try {
      token.number = std::stod(token.text);
    } catch (const std::exception&) {
      throw SqlError("bad numeric literal '" + token.text + "' at position " +
                     std::to_string(start));
    }
    return token;
  }

  Token LexString() {
    const size_t start = pos_;
    ++pos_;  // opening quote
    std::string text;
    while (pos_ < input_.size() && input_[pos_] != '\'') {
      text.push_back(input_[pos_++]);
    }
    if (pos_ >= input_.size()) {
      throw SqlError("unterminated string literal at position " +
                     std::to_string(start));
    }
    ++pos_;  // closing quote
    return Token{TokenKind::kString, std::move(text), 0.0, false, start};
  }

  Token LexSymbol() {
    const size_t start = pos_;
    static constexpr const char* kTwoChar[] = {"!=", "<>", "<=", ">="};
    if (pos_ + 1 < input_.size()) {
      const std::string two = input_.substr(pos_, 2);
      for (const char* sym : kTwoChar) {
        if (two == sym) {
          pos_ += 2;
          return Token{TokenKind::kSymbol, two, 0.0, false, start};
        }
      }
    }
    const char c = input_[pos_];
    if (c == '=' || c == '<' || c == '>' || c == '(' || c == ')' ||
        c == '*' || c == ',') {
      ++pos_;
      return Token{TokenKind::kSymbol, std::string(1, c), 0.0, false, start};
    }
    throw SqlError("unexpected character '" + std::string(1, c) +
                   "' at position " + std::to_string(start));
  }

  const std::string& input_;
  size_t pos_ = 0;
};

std::string ToUpper(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return s;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  SelectStatement Parse() {
    SelectStatement stmt;
    ExpectKeyword("SELECT");
    ParseSelect(stmt);
    ExpectKeyword("FROM");
    stmt.table = ExpectIdent("table name");
    if (IsKeyword("WHERE")) {
      Advance();
      stmt.where = ParseOr();
      stmt.has_where = true;
    }
    if (Current().kind != TokenKind::kEnd) {
      Fail("trailing input");
    }
    return stmt;
  }

 private:
  const Token& Current() const { return tokens_[index_]; }
  void Advance() { ++index_; }

  [[noreturn]] void Fail(const std::string& what) const {
    std::ostringstream out;
    out << "SQL parse error: " << what << " at position "
        << Current().position;
    if (!Current().text.empty()) {
      out << " (near '" << Current().text << "')";
    }
    throw SqlError(out.str());
  }

  bool IsKeyword(const std::string& upper) const {
    return Current().kind == TokenKind::kIdent &&
           ToUpper(Current().text) == upper;
  }

  void ExpectKeyword(const std::string& upper) {
    if (!IsKeyword(upper)) {
      Fail("expected " + upper);
    }
    Advance();
  }

  std::string ExpectIdent(const std::string& what) {
    if (Current().kind != TokenKind::kIdent) {
      Fail("expected " + what);
    }
    std::string text = Current().text;
    Advance();
    return text;
  }

  void ExpectSymbol(const std::string& symbol) {
    if (Current().kind != TokenKind::kSymbol || Current().text != symbol) {
      Fail("expected '" + symbol + "'");
    }
    Advance();
  }

  void ParseSelect(SelectStatement& stmt) {
    const std::string first = ExpectIdent("column or aggregate");
    const std::string upper = ToUpper(first);
    Aggregate aggregate = Aggregate::kNone;
    if (upper == "SUM") {
      aggregate = Aggregate::kSum;
    } else if (upper == "AVG") {
      aggregate = Aggregate::kAvg;
    } else if (upper == "MIN") {
      aggregate = Aggregate::kMin;
    } else if (upper == "MAX") {
      aggregate = Aggregate::kMax;
    } else if (upper == "COUNT") {
      aggregate = Aggregate::kCount;
    }
    const bool looks_like_call = Current().kind == TokenKind::kSymbol &&
                                 Current().text == "(";
    if (aggregate != Aggregate::kNone && looks_like_call) {
      Advance();  // '('
      stmt.aggregate = aggregate;
      if (aggregate == Aggregate::kCount && Current().kind == TokenKind::kSymbol &&
          Current().text == "*") {
        Advance();
        stmt.count_star = true;
      } else {
        stmt.column = ExpectIdent("aggregate column");
      }
      ExpectSymbol(")");
    } else {
      stmt.column = first;
    }
  }

  Predicate ParseOr() {
    Predicate left = ParseAnd();
    if (!IsKeyword("OR")) {
      return left;
    }
    Predicate node;
    node.kind = Predicate::Kind::kOr;
    node.children.push_back(std::move(left));
    while (IsKeyword("OR")) {
      Advance();
      node.children.push_back(ParseAnd());
    }
    return node;
  }

  Predicate ParseAnd() {
    Predicate left = ParseUnary();
    if (!IsKeyword("AND")) {
      return left;
    }
    Predicate node;
    node.kind = Predicate::Kind::kAnd;
    node.children.push_back(std::move(left));
    while (IsKeyword("AND")) {
      Advance();
      node.children.push_back(ParseUnary());
    }
    return node;
  }

  Predicate ParseUnary() {
    if (IsKeyword("NOT")) {
      Advance();
      Predicate node;
      node.kind = Predicate::Kind::kNot;
      node.children.push_back(ParseUnary());
      return node;
    }
    return ParsePrimary();
  }

  Predicate ParsePrimary() {
    if (Current().kind == TokenKind::kSymbol && Current().text == "(") {
      Advance();
      Predicate inner = ParseOr();
      ExpectSymbol(")");
      return inner;
    }
    std::string column = ExpectIdent("column name");
    if (IsKeyword("IN")) {
      Advance();
      ExpectSymbol("(");
      Predicate in;
      in.kind = Predicate::Kind::kIn;
      in.column = std::move(column);
      in.literal_set.push_back(ParseLiteral());
      while (Current().kind == TokenKind::kSymbol && Current().text == ",") {
        Advance();
        in.literal_set.push_back(ParseLiteral());
      }
      ExpectSymbol(")");
      return in;
    }
    if (IsKeyword("BETWEEN")) {
      Advance();
      Predicate between;
      between.kind = Predicate::Kind::kBetween;
      between.column = std::move(column);
      between.between_lo = ParseLiteral();
      ExpectKeyword("AND");
      between.between_hi = ParseLiteral();
      return between;
    }
    Predicate cmp;
    cmp.kind = Predicate::Kind::kComparison;
    cmp.column = std::move(column);
    cmp.op = ParseOp();
    cmp.literal = ParseLiteral();
    return cmp;
  }

  CompareOp ParseOp() {
    if (Current().kind != TokenKind::kSymbol) {
      Fail("expected comparison operator");
    }
    const std::string& symbol = Current().text;
    CompareOp op;
    if (symbol == "=") {
      op = CompareOp::kEq;
    } else if (symbol == "!=" || symbol == "<>") {
      op = CompareOp::kNe;
    } else if (symbol == "<") {
      op = CompareOp::kLt;
    } else if (symbol == "<=") {
      op = CompareOp::kLe;
    } else if (symbol == ">") {
      op = CompareOp::kGt;
    } else if (symbol == ">=") {
      op = CompareOp::kGe;
    } else {
      Fail("expected comparison operator");
    }
    Advance();
    return op;
  }

  Value ParseLiteral() {
    if (Current().kind == TokenKind::kNumber) {
      Value value = Current().is_integer ? Value(Current().integer)
                                         : Value(Current().number);
      Advance();
      return value;
    }
    if (Current().kind == TokenKind::kString) {
      Value value(Current().text);
      Advance();
      return value;
    }
    Fail("expected literal");
  }

  std::vector<Token> tokens_;
  size_t index_ = 0;
};

}  // namespace

SelectStatement ParseSql(const std::string& sql) {
  Lexer lexer(sql);
  Parser parser(lexer.Tokenize());
  return parser.Parse();
}

}  // namespace privapprox::localdb
