#include "metrics/timeline.h"

#include <cstdio>

namespace privapprox::metrics {

namespace {

uint32_t ThisThreadId() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace

void EpochTimeline::Record(const char* name, int64_t start_ns,
                           int64_t end_ns) {
  if (!enabled()) {
    return;
  }
  Event event;
  event.name = name;
  event.tid = ThisThreadId();
  event.start_ns = start_ns;
  event.duration_ns = end_ns > start_ns ? end_ns - start_ns : 0;
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.capacity() == events_.size()) {
    events_.reserve(events_.empty() ? 256 : events_.size() * 2);
  }
  events_.push_back(event);
}

void EpochTimeline::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

std::vector<EpochTimeline::Event> EpochTimeline::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

size_t EpochTimeline::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::string EpochTimeline::ToChromeTracingJson() const {
  std::vector<Event> events = Events();
  int64_t origin_ns = 0;
  for (const Event& event : events) {
    if (origin_ns == 0 || event.start_ns < origin_ns) {
      origin_ns = event.start_ns;
    }
  }
  std::string out = "{\"traceEvents\":[";
  char buf[192];
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& event = events[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f}",
                  i == 0 ? "" : ",", event.name, event.tid,
                  static_cast<double>(event.start_ns - origin_ns) / 1000.0,
                  static_cast<double>(event.duration_ns) / 1000.0);
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace privapprox::metrics
