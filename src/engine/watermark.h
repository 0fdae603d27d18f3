// Event-time watermark generation.
//
// The aggregator consumes share streams whose event timestamps arrive
// slightly out of order (clients answer at the same epoch boundary but
// shares traverse different proxies). A bounded-out-of-orderness watermark
// — the same strategy the Flink prototype would use — tracks the maximum
// event time seen and lags it by a fixed bound; windows fire when the
// watermark passes their end, and anything arriving later than the bound is
// late data (dropped by PaneWindows, engine/window.h).

#ifndef PRIVAPPROX_ENGINE_WATERMARK_H_
#define PRIVAPPROX_ENGINE_WATERMARK_H_

#include <cstdint>
#include <stdexcept>

namespace privapprox::engine {

class BoundedOutOfOrdernessWatermark {
 public:
  // `max_out_of_orderness_ms` >= 0: how far behind the fastest-seen event
  // time a straggler may be and still count.
  explicit BoundedOutOfOrdernessWatermark(int64_t max_out_of_orderness_ms)
      : bound_ms_(max_out_of_orderness_ms) {
    if (max_out_of_orderness_ms < 0) {
      throw std::invalid_argument(
          "BoundedOutOfOrdernessWatermark: bound must be >= 0");
    }
  }

  // Observes one event timestamp.
  void Observe(int64_t event_time_ms) {
    if (event_time_ms > max_event_time_ms_) {
      max_event_time_ms_ = event_time_ms;
    }
  }

  // The current watermark: no event with timestamp <= Current() is expected
  // anymore. INT64_MIN until the first observation, and while the bound
  // reaches below INT64_MIN (a producer may stamp any event time).
  int64_t Current() const {
    if (max_event_time_ms_ < INT64_MIN + bound_ms_) {
      return INT64_MIN;
    }
    return max_event_time_ms_ - bound_ms_;
  }

  int64_t max_event_time_ms() const { return max_event_time_ms_; }
  int64_t bound_ms() const { return bound_ms_; }

 private:
  int64_t bound_ms_;
  int64_t max_event_time_ms_ = INT64_MIN;
};

}  // namespace privapprox::engine

#endif  // PRIVAPPROX_ENGINE_WATERMARK_H_
