// The analyst query model (paper §2.2, §3.1).
//
// Query := <QID, SQL, A[n], f, w, delta>  (Eq 1)
//
// Results of a query are always counts within histogram buckets: the answer
// format A[n] is an n-bit vector, one bit per bucket. Buckets are either
// numeric ranges [lo, hi) or non-numeric matching rules (exact string or a
// simple '*'/'?' wildcard pattern).

#ifndef PRIVAPPROX_CORE_QUERY_H_
#define PRIVAPPROX_CORE_QUERY_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace privapprox::core {

// A numeric bucket covers [lo, hi). Use +/-infinity for open ends.
struct NumericBucket {
  double lo = 0.0;
  double hi = 0.0;
  bool Contains(double value) const { return value >= lo && value < hi; }
};

// A non-numeric bucket matches strings: exact match, or a wildcard pattern
// where '*' matches any run and '?' any single character.
struct MatchBucket {
  std::string pattern;
  bool is_wildcard = false;
  bool Contains(const std::string& value) const;
};

using Bucket = std::variant<NumericBucket, MatchBucket>;

// The answer format A[n]: an ordered list of buckets.
class AnswerFormat {
 public:
  AnswerFormat() = default;
  explicit AnswerFormat(std::vector<Bucket> buckets)
      : buckets_(std::move(buckets)) {}

  // Equi-width numeric buckets over [lo, hi) plus optional overflow bucket
  // [hi, +inf).
  static AnswerFormat UniformNumeric(double lo, double hi, size_t num_buckets,
                                     bool with_overflow = false);

  size_t num_buckets() const { return buckets_.size(); }
  const std::vector<Bucket>& buckets() const { return buckets_; }

  // Index of the bucket containing `value`; nullopt if none matches.
  std::optional<size_t> BucketOf(double value) const;
  std::optional<size_t> BucketOf(const std::string& value) const;

  // Human-readable label of bucket i ("[0, 1)", "pattern").
  std::string BucketLabel(size_t index) const;

 private:
  std::vector<Bucket> buckets_;
};

// A streaming query (Eq 1). `sql` is executed against each client's local
// database; `answer_format` maps the result value to the bit-vector answer.
struct Query {
  uint64_t query_id = 0;          // QID
  std::string sql;                // SQL text run at clients
  AnswerFormat answer_format;     // A[n]
  int64_t answer_frequency_ms = 1000;  // f: how often clients answer
  int64_t window_length_ms = 60000;    // w: sliding window length
  int64_t sliding_interval_ms = 10000; // delta: slide interval
  uint64_t analyst_id = 0;
  // Non-repudiation stand-in: analysts sign queries; the simulation carries
  // a checksum the aggregator verifies (a full signature scheme is out of
  // scope for the reproduced experiments).
  uint64_t signature = 0;

  // Structural checks every entry point runs before acting on a query:
  // non-empty SQL, >= 1 bucket, positive periods, slide <= window, and a
  // non-zero QID. Throws std::invalid_argument on violations. A Query is a
  // plain struct, so a signed one can still fail these.
  void Validate() const;

  // Computes/validates the stand-in signature over the query fields.
  uint64_t ComputeSignature() const;
  void Sign() { signature = ComputeSignature(); }
  bool VerifySignature() const { return signature == ComputeSignature(); }
};

// Builder with validation, so examples read declaratively.
class QueryBuilder {
 public:
  QueryBuilder& WithId(uint64_t id);
  QueryBuilder& WithAnalyst(uint64_t analyst_id);
  QueryBuilder& WithSql(std::string sql);
  QueryBuilder& WithAnswerFormat(AnswerFormat format);
  QueryBuilder& WithFrequencyMs(int64_t f_ms);
  QueryBuilder& WithWindowMs(int64_t w_ms);
  QueryBuilder& WithSlideMs(int64_t delta_ms);

  // Validates (Query::Validate) and signs. Throws std::invalid_argument on
  // violations.
  Query Build() const;

 private:
  Query query_;
};

}  // namespace privapprox::core

#endif  // PRIVAPPROX_CORE_QUERY_H_
