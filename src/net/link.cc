#include "net/link.h"

#include <algorithm>
#include <stdexcept>

namespace privapprox::net {

Link::Link(LinkConfig config) : config_(config) {
  if (config.bandwidth_bytes_per_ms <= 0.0 || config.latency_ms < 0.0) {
    throw std::invalid_argument("Link: bad config");
  }
}

double Link::Transfer(double start_ms, uint64_t bytes) {
  const double begin = std::max(start_ms, busy_until_ms_);
  const double serialize =
      static_cast<double>(bytes) / config_.bandwidth_bytes_per_ms;
  busy_until_ms_ = begin + serialize;
  bytes_transferred_ += bytes;
  ++transfers_;
  return busy_until_ms_ + config_.latency_ms;
}

void Link::Reset() {
  busy_until_ms_ = 0.0;
  bytes_transferred_ = 0;
  transfers_ = 0;
}

}  // namespace privapprox::net
