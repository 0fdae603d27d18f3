#include "core/query.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace privapprox::core {
namespace {

// FNV-1a over a byte range, used by the signature stand-in.
uint64_t Fnv1a(uint64_t hash, const void* data, size_t len) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

bool WildcardMatch(const std::string& pattern, const std::string& text) {
  // Iterative glob matching with backtracking over the last '*'.
  size_t p = 0, t = 0;
  size_t star = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_t = t;
    } else if (star != std::string::npos) {
      p = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') {
    ++p;
  }
  return p == pattern.size();
}

}  // namespace

bool MatchBucket::Contains(const std::string& value) const {
  if (is_wildcard) {
    return WildcardMatch(pattern, value);
  }
  return pattern == value;
}

AnswerFormat AnswerFormat::UniformNumeric(double lo, double hi,
                                          size_t num_buckets,
                                          bool with_overflow) {
  if (num_buckets == 0 || !(hi > lo)) {
    throw std::invalid_argument("AnswerFormat::UniformNumeric: bad range");
  }
  std::vector<Bucket> buckets;
  buckets.reserve(num_buckets + (with_overflow ? 1 : 0));
  const double width = (hi - lo) / static_cast<double>(num_buckets);
  for (size_t i = 0; i < num_buckets; ++i) {
    buckets.push_back(NumericBucket{lo + width * static_cast<double>(i),
                                    lo + width * static_cast<double>(i + 1)});
  }
  if (with_overflow) {
    buckets.push_back(
        NumericBucket{hi, std::numeric_limits<double>::infinity()});
  }
  return AnswerFormat(std::move(buckets));
}

std::optional<size_t> AnswerFormat::BucketOf(double value) const {
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (const auto* numeric = std::get_if<NumericBucket>(&buckets_[i]);
        numeric != nullptr && numeric->Contains(value)) {
      return i;
    }
  }
  return std::nullopt;
}

std::optional<size_t> AnswerFormat::BucketOf(const std::string& value) const {
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (const auto* match = std::get_if<MatchBucket>(&buckets_[i]);
        match != nullptr && match->Contains(value)) {
      return i;
    }
  }
  return std::nullopt;
}

std::string AnswerFormat::BucketLabel(size_t index) const {
  if (index >= buckets_.size()) {
    throw std::out_of_range("AnswerFormat::BucketLabel: bad index");
  }
  std::ostringstream out;
  if (const auto* numeric = std::get_if<NumericBucket>(&buckets_[index])) {
    out << "[" << numeric->lo << ", ";
    if (std::isinf(numeric->hi)) {
      out << "+inf";
    } else {
      out << numeric->hi;
    }
    out << ")";
  } else {
    out << std::get<MatchBucket>(buckets_[index]).pattern;
  }
  return out.str();
}

void Query::Validate() const {
  if (sql.empty()) {
    throw std::invalid_argument("Query: SQL must be non-empty");
  }
  if (answer_format.num_buckets() == 0) {
    throw std::invalid_argument("Query: need at least one bucket");
  }
  if (answer_frequency_ms <= 0 || window_length_ms <= 0 ||
      sliding_interval_ms <= 0) {
    throw std::invalid_argument("Query: periods must be positive");
  }
  if (sliding_interval_ms > window_length_ms) {
    throw std::invalid_argument(
        "Query: sliding interval must not exceed window length");
  }
  if (query_id == 0) {
    // QID 0 is the wire default; letting it through would make an
    // unregistered announcement indistinguishable from a real one, and the
    // multi-query runtime uses 0 as "no lane".
    throw std::invalid_argument("Query: query id must be non-zero");
  }
}

uint64_t Query::ComputeSignature() const {
  uint64_t hash = 0xCBF29CE484222325ULL;
  hash = Fnv1a(hash, &query_id, sizeof(query_id));
  hash = Fnv1a(hash, &analyst_id, sizeof(analyst_id));
  hash = Fnv1a(hash, sql.data(), sql.size());
  hash = Fnv1a(hash, &answer_frequency_ms, sizeof(answer_frequency_ms));
  hash = Fnv1a(hash, &window_length_ms, sizeof(window_length_ms));
  hash = Fnv1a(hash, &sliding_interval_ms, sizeof(sliding_interval_ms));
  const uint64_t buckets = answer_format.num_buckets();
  hash = Fnv1a(hash, &buckets, sizeof(buckets));
  return hash;
}

QueryBuilder& QueryBuilder::WithId(uint64_t id) {
  query_.query_id = id;
  return *this;
}

QueryBuilder& QueryBuilder::WithAnalyst(uint64_t analyst_id) {
  query_.analyst_id = analyst_id;
  return *this;
}

QueryBuilder& QueryBuilder::WithSql(std::string sql) {
  query_.sql = std::move(sql);
  return *this;
}

QueryBuilder& QueryBuilder::WithAnswerFormat(AnswerFormat format) {
  query_.answer_format = std::move(format);
  return *this;
}

QueryBuilder& QueryBuilder::WithFrequencyMs(int64_t f_ms) {
  query_.answer_frequency_ms = f_ms;
  return *this;
}

QueryBuilder& QueryBuilder::WithWindowMs(int64_t w_ms) {
  query_.window_length_ms = w_ms;
  return *this;
}

QueryBuilder& QueryBuilder::WithSlideMs(int64_t delta_ms) {
  query_.sliding_interval_ms = delta_ms;
  return *this;
}

Query QueryBuilder::Build() const {
  query_.Validate();
  Query query = query_;
  query.Sign();
  return query;
}

}  // namespace privapprox::core
