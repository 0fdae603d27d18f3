#include "deploy/result_wire.h"

#include <bit>
#include <stdexcept>
#include <string>

#include "transport/wire.h"

namespace privapprox::deploy {

namespace {

void PutF64(double v, std::vector<uint8_t>& out) {
  transport::PutU64(std::bit_cast<uint64_t>(v), out);
}

double TakeF64(transport::WireReader& reader) {
  return std::bit_cast<double>(reader.TakeU64());
}

// Smallest encoding of one result (eight u64 fields and the bucket count)
// and of one bucket (five u64 fields).
constexpr size_t kResultBytes = 8 * 8 + 4;
constexpr size_t kBucketBytes = 5 * 8;

// Refuses a sender's count that the bytes left cannot hold, before
// anything is sized by it.
void CheckCount(const char* what, uint32_t count, size_t each,
                const transport::WireReader& reader) {
  if (count > reader.remaining() / each) {
    throw std::invalid_argument("DeserializeResults: " + std::string(what) +
                                " count " + std::to_string(count) +
                                " exceeds the payload");
  }
}

}  // namespace

std::vector<uint8_t> SerializeResults(
    std::span<const aggregator::WindowedResult> results) {
  size_t bytes = 4;
  for (const aggregator::WindowedResult& result : results) {
    bytes += kResultBytes + result.result.buckets.size() * kBucketBytes;
  }
  std::vector<uint8_t> out;
  out.reserve(bytes);
  transport::PutU32(static_cast<uint32_t>(results.size()), out);
  for (const aggregator::WindowedResult& result : results) {
    transport::PutU64(result.query_id, out);
    transport::PutU64(static_cast<uint64_t>(result.window.start_ms), out);
    transport::PutU64(static_cast<uint64_t>(result.window.end_ms), out);
    const core::QueryResult& qr = result.result;
    transport::PutU64(qr.participants, out);
    transport::PutU64(qr.population, out);
    transport::PutU64(qr.lost_to_faults, out);
    PutF64(qr.confidence, out);
    PutF64(qr.sampling_fraction, out);
    transport::PutU32(static_cast<uint32_t>(qr.buckets.size()), out);
    for (const core::BucketEstimate& bucket : qr.buckets) {
      PutF64(bucket.estimate.value, out);
      PutF64(bucket.estimate.error, out);
      PutF64(bucket.estimate.confidence, out);
      transport::PutU64(bucket.estimate.sample_size, out);
      PutF64(bucket.randomized_count, out);
    }
  }
  return out;
}

std::vector<aggregator::WindowedResult> DeserializeResults(
    std::span<const uint8_t> bytes) {
  transport::WireReader reader(bytes);
  const uint32_t count = reader.TakeU32();
  CheckCount("result", count, kResultBytes, reader);
  std::vector<aggregator::WindowedResult> results;
  results.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    aggregator::WindowedResult result;
    result.query_id = reader.TakeU64();
    result.window.start_ms = static_cast<int64_t>(reader.TakeU64());
    result.window.end_ms = static_cast<int64_t>(reader.TakeU64());
    core::QueryResult& qr = result.result;
    qr.participants = static_cast<size_t>(reader.TakeU64());
    qr.population = static_cast<size_t>(reader.TakeU64());
    qr.lost_to_faults = static_cast<size_t>(reader.TakeU64());
    qr.confidence = TakeF64(reader);
    qr.sampling_fraction = TakeF64(reader);
    const uint32_t num_buckets = reader.TakeU32();
    CheckCount("bucket", num_buckets, kBucketBytes, reader);
    qr.buckets.reserve(num_buckets);
    for (uint32_t b = 0; b < num_buckets; ++b) {
      core::BucketEstimate bucket;
      bucket.estimate.value = TakeF64(reader);
      bucket.estimate.error = TakeF64(reader);
      bucket.estimate.confidence = TakeF64(reader);
      bucket.estimate.sample_size = static_cast<size_t>(reader.TakeU64());
      bucket.randomized_count = TakeF64(reader);
      qr.buckets.push_back(bucket);
    }
    results.push_back(std::move(result));
  }
  if (!reader.AtEnd()) {
    throw std::invalid_argument("DeserializeResults: trailing bytes");
  }
  return results;
}

}  // namespace privapprox::deploy
