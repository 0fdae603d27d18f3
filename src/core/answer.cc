#include "core/answer.h"

#include <bit>
#include <stdexcept>

namespace privapprox::core {

BitVector EncodeAnswer(const AnswerFormat& format, double value) {
  BitVector answer(format.num_buckets());
  if (const auto bucket = format.BucketOf(value); bucket.has_value()) {
    answer.Set(*bucket, true);
  }
  return answer;
}

BitVector EncodeAnswer(const AnswerFormat& format, const std::string& value) {
  BitVector answer(format.num_buckets());
  if (const auto bucket = format.BucketOf(value); bucket.has_value()) {
    answer.Set(*bucket, true);
  }
  return answer;
}

BitVector EmptyAnswer(const AnswerFormat& format) {
  return BitVector(format.num_buckets());
}

void AnswerAccumulator::Add(const BitVector& answer) {
  if (answer.size() != histogram_.num_buckets()) {
    throw std::invalid_argument("AnswerAccumulator::Add: width mismatch");
  }
  Add(answer.bytes());
}

void AnswerAccumulator::Add(std::span<const uint8_t> answer_bytes) {
  const size_t num_buckets = histogram_.num_buckets();
  if (answer_bytes.size() != (num_buckets + 7) / 8) {
    throw std::invalid_argument("AnswerAccumulator::Add: width mismatch");
  }
  for (size_t byte = 0; byte < answer_bytes.size(); ++byte) {
    // Set bits in ascending order; a bit past the last bucket is padding.
    for (unsigned bits = answer_bytes[byte]; bits != 0; bits &= bits - 1) {
      const size_t bucket =
          byte * 8 + static_cast<size_t>(std::countr_zero(bits));
      if (bucket >= num_buckets) {
        break;
      }
      histogram_.Add(bucket);
    }
  }
  ++num_answers_;
}

void AnswerAccumulator::Merge(const AnswerAccumulator& other) {
  histogram_.Merge(other.histogram_);
  num_answers_ += other.num_answers_;
}

}  // namespace privapprox::core
