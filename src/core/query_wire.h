// Wire serialization of queries and execution parameters (paper §3.1).
//
// The submission phase ships <Query, (s, p, q)> from the analyst through
// the aggregator and proxies to every client. This is that wire format: a
// versioned, length-prefixed binary encoding with explicit little-endian
// integer layout, so a malformed or truncated query blob is rejected
// instead of misparsed.

#ifndef PRIVAPPROX_CORE_QUERY_WIRE_H_
#define PRIVAPPROX_CORE_QUERY_WIRE_H_

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/budget.h"
#include "core/query.h"

namespace privapprox::core {

class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& message)
      : std::runtime_error(message) {}
};

// The unit that travels from the aggregator to clients.
struct QueryAnnouncement {
  Query query;
  ExecutionParams params;

  bool operator==(const QueryAnnouncement& other) const = default;
};

inline bool operator==(const Query& a, const Query& b) {
  return a.query_id == b.query_id && a.sql == b.sql &&
         a.analyst_id == b.analyst_id && a.signature == b.signature &&
         a.answer_frequency_ms == b.answer_frequency_ms &&
         a.window_length_ms == b.window_length_ms &&
         a.sliding_interval_ms == b.sliding_interval_ms &&
         a.answer_format.num_buckets() == b.answer_format.num_buckets();
}

inline bool operator==(const ExecutionParams& a, const ExecutionParams& b) {
  return a.sampling_fraction == b.sampling_fraction &&
         a.randomization.p == b.randomization.p &&
         a.randomization.q == b.randomization.q;
}

// The checks every entry point runs on a query before any side effect —
// Query::Validate, the analyst signature, ExecutionParams::Validate — so a
// query one component would refuse never reaches another. Throws
// std::invalid_argument.
void ValidateAnnouncement(const Query& query, const ExecutionParams& params);

// Serializes an announcement; never throws for valid inputs.
std::vector<uint8_t> SerializeAnnouncement(const QueryAnnouncement& ann);

// Parses an announcement. Throws WireError on truncation, bad magic, an
// unsupported version, or malformed bucket specs. Does NOT validate the
// query — receivers run ValidateAnnouncement themselves.
// Takes a non-owning view; the vector overload exists for brace-init
// call sites.
QueryAnnouncement DeserializeAnnouncement(std::span<const uint8_t> bytes);
inline QueryAnnouncement DeserializeAnnouncement(
    const std::vector<uint8_t>& bytes) {
  return DeserializeAnnouncement(std::span<const uint8_t>(bytes));
}

}  // namespace privapprox::core

#endif  // PRIVAPPROX_CORE_QUERY_WIRE_H_
