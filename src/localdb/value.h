// Typed values for the client-local database (the SQLite stand-in; see
// DESIGN.md substitution table). Clients execute the analyst's SQL against
// rows of these values.

#ifndef PRIVAPPROX_LOCALDB_VALUE_H_
#define PRIVAPPROX_LOCALDB_VALUE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace privapprox::localdb {

// A 16-byte tagged value: an int64, a double, or an owned string. Numbers
// live inline; a string owns one heap std::string, so the numeric readings
// that make up nearly every client row cost their 8 bytes and a tag.
class Value {
 public:
  Value() noexcept : data_{.i = 0}, kind_(Kind::kInt) {}
  Value(int64_t v) noexcept : data_{.i = v}, kind_(Kind::kInt) {}  // NOLINT(google-explicit-constructor)
  Value(double v) noexcept : data_{.d = v}, kind_(Kind::kDouble) {}  // NOLINT(google-explicit-constructor)
  Value(std::string v)  // NOLINT(google-explicit-constructor)
      : data_{.s = new std::string(std::move(v))}, kind_(Kind::kString) {}
  Value(const char* v) : Value(std::string(v)) {}  // NOLINT(google-explicit-constructor)

  Value(const Value& other);
  // A moved-from Value holds the integer 0.
  Value(Value&& other) noexcept : data_(other.data_), kind_(other.kind_) {
    other.data_.i = 0;
    other.kind_ = Kind::kInt;
  }
  Value& operator=(const Value& other);
  Value& operator=(Value&& other) noexcept;
  ~Value() {
    if (IsString()) {
      delete data_.s;
    }
  }

  bool IsInt() const { return kind_ == Kind::kInt; }
  bool IsDouble() const { return kind_ == Kind::kDouble; }
  bool IsString() const { return kind_ == Kind::kString; }
  bool IsNumeric() const { return !IsString(); }

  // Truncates a double toward zero; throws std::invalid_argument for a
  // string, a NaN, or a double outside the int64 range.
  int64_t AsInt() const;
  // Numeric coercion: ints convert; strings throw.
  double AsDouble() const;
  const std::string& AsString() const;

  // Three-way comparison with numeric coercion between int and double.
  // Comparing a string with a number throws std::invalid_argument.
  int Compare(const Value& other) const;

  bool operator==(const Value& o) const { return Compare(o) == 0; }
  bool operator!=(const Value& o) const { return Compare(o) != 0; }
  bool operator<(const Value& o) const { return Compare(o) < 0; }
  bool operator<=(const Value& o) const { return Compare(o) <= 0; }
  bool operator>(const Value& o) const { return Compare(o) > 0; }
  bool operator>=(const Value& o) const { return Compare(o) >= 0; }

  std::string ToString() const;

 private:
  enum class Kind : uint8_t { kInt, kDouble, kString };

  union Payload {
    int64_t i;
    double d;
    std::string* s;  // owned; kString only
  };

  Payload data_;
  Kind kind_;
};

static_assert(sizeof(Value) == 16, "a Value is 8 payload bytes and a tag");

using Row = std::vector<Value>;

}  // namespace privapprox::localdb

#endif  // PRIVAPPROX_LOCALDB_VALUE_H_
