#include "localdb/value.h"

#include <sstream>
#include <stdexcept>

namespace privapprox::localdb {

Value::Value(const Value& other) : data_(other.data_), kind_(other.kind_) {
  if (other.IsString()) {
    data_.s = new std::string(*other.data_.s);
  }
}

Value& Value::operator=(const Value& other) {
  if (this == &other) {
    return *this;
  }
  if (IsString() && other.IsString()) {
    *data_.s = *other.data_.s;
    return *this;
  }
  *this = Value(other);
  return *this;
}

Value& Value::operator=(Value&& other) noexcept {
  if (this != &other) {
    if (IsString()) {
      delete data_.s;
    }
    data_ = other.data_;
    kind_ = other.kind_;
    other.data_.i = 0;
    other.kind_ = Kind::kInt;
  }
  return *this;
}

int64_t Value::AsInt() const {
  if (IsInt()) {
    return data_.i;
  }
  if (IsDouble()) {
    // [-2^63, 2^63) is exactly the doubles that truncate into int64; a NaN
    // fails both comparisons.
    if (!(data_.d >= -0x1p63 && data_.d < 0x1p63)) {
      throw std::invalid_argument("Value::AsInt: double outside int64");
    }
    return static_cast<int64_t>(data_.d);
  }
  throw std::invalid_argument("Value::AsInt: string value");
}

double Value::AsDouble() const {
  if (IsDouble()) {
    return data_.d;
  }
  if (IsInt()) {
    return static_cast<double>(data_.i);
  }
  throw std::invalid_argument("Value::AsDouble: string value");
}

const std::string& Value::AsString() const {
  if (!IsString()) {
    throw std::invalid_argument("Value::AsString: numeric value");
  }
  return *data_.s;
}

int Value::Compare(const Value& other) const {
  if (IsString() != other.IsString()) {
    throw std::invalid_argument("Value::Compare: type mismatch");
  }
  if (IsString()) {
    const int cmp = data_.s->compare(*other.data_.s);
    return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
  }
  if (IsInt() && other.IsInt()) {
    return data_.i < other.data_.i ? -1 : (data_.i > other.data_.i ? 1 : 0);
  }
  const double a = AsDouble();
  const double b = other.AsDouble();
  return a < b ? -1 : (a > b ? 1 : 0);
}

std::string Value::ToString() const {
  if (IsString()) {
    return *data_.s;
  }
  std::ostringstream out;
  if (IsInt()) {
    out << data_.i;
  } else {
    out << data_.d;
  }
  return out.str();
}

}  // namespace privapprox::localdb
