// Truthful answer encoding: value -> one-hot bucket bit vector (§2.2).
//
// "each query answer is represented in the form of binary buckets, where
// each bucket stores a value '1' or '0' depending on whether or not the
// answer falls into the value range represented by that bucket."

#ifndef PRIVAPPROX_CORE_ANSWER_H_
#define PRIVAPPROX_CORE_ANSWER_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "common/bitvector.h"
#include "common/histogram.h"
#include "core/query.h"

namespace privapprox::core {

// Encodes a numeric query result as the one-hot answer vector. Values that
// fall into no bucket yield an all-zero vector (the client "has no answer"
// but still participates, so its absence cannot be inferred).
BitVector EncodeAnswer(const AnswerFormat& format, double value);

// Non-numeric variant.
BitVector EncodeAnswer(const AnswerFormat& format, const std::string& value);

// An all-zero answer of the right width (non-participating shape).
BitVector EmptyAnswer(const AnswerFormat& format);

// Accumulates per-bucket counts from (randomized or truthful) answers.
class AnswerAccumulator {
 public:
  explicit AnswerAccumulator(size_t num_buckets)
      : histogram_(num_buckets) {}

  void Add(const BitVector& answer);
  // Folds one answer given in BitVector::bytes() layout: ceil(num_buckets /
  // 8) bytes, pad bits ignored. The aggregator feeds joined plaintexts
  // through this overload without materializing a BitVector.
  void Add(std::span<const uint8_t> answer_bytes);
  void Merge(const AnswerAccumulator& other);

  size_t num_answers() const { return num_answers_; }
  const Histogram& histogram() const { return histogram_; }

 private:
  Histogram histogram_;
  size_t num_answers_ = 0;
};

}  // namespace privapprox::core

#endif  // PRIVAPPROX_CORE_ANSWER_H_
