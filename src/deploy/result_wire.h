// Bit-exact wire serialization of windowed query results.
//
// The socket deployment's acceptance criterion is that a 2-proxy TCP run
// produces *bit-identical* QueryResults to the in-process run. Comparing
// doubles through a text format would launder away ULP differences, so
// results cross the wire (and the e2e diff) with every double encoded as
// its raw IEEE-754 bit pattern: two runs compare equal iff every estimate,
// error margin, and randomized count is the same 64-bit value.

#ifndef PRIVAPPROX_DEPLOY_RESULT_WIRE_H_
#define PRIVAPPROX_DEPLOY_RESULT_WIRE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "aggregator/aggregator.h"

namespace privapprox::deploy {

// Serializes results in order. Deterministic: equal result vectors produce
// equal bytes, and (because doubles travel as bit patterns) equal bytes mean
// bit-identical results.
std::vector<uint8_t> SerializeResults(
    std::span<const aggregator::WindowedResult> results);

// Parses bytes produced by SerializeResults. Throws std::invalid_argument
// on truncation, trailing bytes, or a result or bucket count the remaining
// bytes cannot hold (refused before anything is sized by it).
std::vector<aggregator::WindowedResult> DeserializeResults(
    std::span<const uint8_t> bytes);

}  // namespace privapprox::deploy

#endif  // PRIVAPPROX_DEPLOY_RESULT_WIRE_H_
