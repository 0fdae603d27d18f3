#include "core/query_wire.h"

#include <cmath>
#include <cstring>
#include <limits>

namespace privapprox::core {
namespace {

constexpr uint32_t kMagic = 0x50415851;  // "PAXQ"
constexpr uint16_t kVersion = 1;

enum class BucketTag : uint8_t { kNumeric = 0, kExact = 1, kWildcard = 2 };

class Writer {
 public:
  void U8(uint8_t v) { out_.push_back(v); }
  void U16(uint16_t v) {
    for (int i = 0; i < 2; ++i) {
      out_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }

  std::vector<uint8_t> Take() { return std::move(out_); }

 private:
  std::vector<uint8_t> out_;
};

class Reader {
 public:
  explicit Reader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  uint8_t U8() { return bytes_[Need(1)]; }
  uint16_t U16() {
    const size_t at = Need(2);
    return static_cast<uint16_t>(bytes_[at] | (bytes_[at + 1] << 8));
  }
  uint32_t U32() {
    const size_t at = Need(4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(bytes_[at + i]) << (8 * i);
    }
    return v;
  }
  uint64_t U64() {
    const size_t at = Need(8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(bytes_[at + i]) << (8 * i);
    }
    return v;
  }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64() {
    const uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string Str() {
    const uint32_t len = U32();
    const size_t at = Need(len);
    return std::string(bytes_.begin() + static_cast<long>(at),
                       bytes_.begin() + static_cast<long>(at + len));
  }

  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  size_t Need(size_t n) {
    if (bytes_.size() - pos_ < n) {
      throw WireError("announcement truncated");
    }
    const size_t at = pos_;
    pos_ += n;
    return at;
  }

  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
};

}  // namespace

void ValidateAnnouncement(const Query& query, const ExecutionParams& params) {
  query.Validate();
  if (!query.VerifySignature()) {
    throw std::invalid_argument("query signature invalid");
  }
  params.Validate();
}

std::vector<uint8_t> SerializeAnnouncement(const QueryAnnouncement& ann) {
  Writer w;
  w.U32(kMagic);
  w.U16(kVersion);
  const Query& query = ann.query;
  w.U64(query.query_id);
  w.U64(query.analyst_id);
  w.U64(query.signature);
  w.Str(query.sql);
  w.I64(query.answer_frequency_ms);
  w.I64(query.window_length_ms);
  w.I64(query.sliding_interval_ms);
  w.U32(static_cast<uint32_t>(query.answer_format.num_buckets()));
  for (const Bucket& bucket : query.answer_format.buckets()) {
    if (const auto* numeric = std::get_if<NumericBucket>(&bucket)) {
      w.U8(static_cast<uint8_t>(BucketTag::kNumeric));
      w.F64(numeric->lo);
      w.F64(numeric->hi);
    } else {
      const auto& match = std::get<MatchBucket>(bucket);
      w.U8(static_cast<uint8_t>(match.is_wildcard ? BucketTag::kWildcard
                                                  : BucketTag::kExact));
      w.Str(match.pattern);
    }
  }
  w.F64(ann.params.sampling_fraction);
  w.F64(ann.params.randomization.p);
  w.F64(ann.params.randomization.q);
  return w.Take();
}

QueryAnnouncement DeserializeAnnouncement(std::span<const uint8_t> bytes) {
  Reader r(bytes);
  if (r.U32() != kMagic) {
    throw WireError("bad announcement magic");
  }
  if (r.U16() != kVersion) {
    throw WireError("unsupported announcement version");
  }
  QueryAnnouncement ann;
  Query& query = ann.query;
  query.query_id = r.U64();
  query.analyst_id = r.U64();
  query.signature = r.U64();
  query.sql = r.Str();
  query.answer_frequency_ms = r.I64();
  query.window_length_ms = r.I64();
  query.sliding_interval_ms = r.I64();
  const uint32_t num_buckets = r.U32();
  // Every bucket encodes to at least a tag and a 4-byte length (or bound),
  // so a count the remaining bytes cannot hold is refused before anything
  // is reserved for it: the sender does not pick the allocation size.
  constexpr size_t kMinBucketBytes = 5;
  if (num_buckets > 1u << 20 ||
      num_buckets > r.remaining() / kMinBucketBytes) {
    throw WireError("implausible bucket count");
  }
  std::vector<Bucket> buckets;
  buckets.reserve(num_buckets);
  for (uint32_t i = 0; i < num_buckets; ++i) {
    const uint8_t tag = r.U8();
    switch (static_cast<BucketTag>(tag)) {
      case BucketTag::kNumeric: {
        NumericBucket bucket;
        bucket.lo = r.F64();
        bucket.hi = r.F64();
        if (std::isnan(bucket.lo) || std::isnan(bucket.hi)) {
          throw WireError("NaN bucket bound");
        }
        buckets.push_back(bucket);
        break;
      }
      case BucketTag::kExact:
        buckets.push_back(MatchBucket{r.Str(), false});
        break;
      case BucketTag::kWildcard:
        buckets.push_back(MatchBucket{r.Str(), true});
        break;
      default:
        throw WireError("unknown bucket tag");
    }
  }
  query.answer_format = AnswerFormat(std::move(buckets));
  ann.params.sampling_fraction = r.F64();
  ann.params.randomization.p = r.F64();
  ann.params.randomization.q = r.F64();
  return ann;
}

}  // namespace privapprox::core
