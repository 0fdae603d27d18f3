// Lock-cheap process metrics for the epoch pipeline.
//
// The paper evaluates PrivApprox almost entirely through throughput/latency
// measurements of its Kafka+Flink deployment (Figs 5, 8, 9); this module is
// the equivalent first-class instrumentation for our in-process pipeline.
// Three primitive instruments — Counter and Gauge over relaxed atomics, and
// a log-bucketed latency Histogram with p50/p95/p99 — plus a process-wide
// Registry of labeled metric families with Prometheus-style text exposition
// and a JSON snapshot.
//
// Concurrency contract: instrument updates (Increment / Set / SetMax /
// Observe) are lock-free relaxed atomics, safe from any thread and cheap
// enough for the share hot path. Registration (GetCounter & friends) takes
// the registry mutex and returns a reference that stays valid for the
// registry's lifetime — register once at construction, update lock-free
// forever after. Rendering snapshots under the same mutex, so exposition is
// deterministic (families and label sets render in sorted order).
//
// Ownership: each pipeline component registers its own families on the
// registry it is handed, so the in-process system and the daemon hosting a
// component export the same families.

#ifndef PRIVAPPROX_METRICS_METRICS_H_
#define PRIVAPPROX_METRICS_METRICS_H_

#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace privapprox::metrics {

// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Point-in-time level. SetMax keeps a running high-watermark.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void SetMax(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Log-bucketed histogram over non-negative integer samples (typically
// nanoseconds or bytes). Buckets are power-of-two octaves split into
// kSubBuckets sub-ranges, so any recorded value lands in a bucket whose
// bounds are within 1/kSubBuckets (12.5%) of it — tight enough for
// p50/p95/p99 latency reporting at a fixed 4 KiB of atomics per histogram,
// with no allocation and no locking on Observe.
class Histogram {
 public:
  static constexpr size_t kSubBucketBits = 3;
  static constexpr size_t kSubBuckets = size_t{1} << kSubBucketBits;  // 8
  static constexpr size_t kNumBuckets = (65 - kSubBucketBits) * kSubBuckets;

  void Observe(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }

  // Upper bound (inclusive) of the bucket holding the q-quantile sample,
  // q in [0, 1]. Exact for values < kSubBuckets; within 12.5% above. Returns
  // 0 on an empty histogram.
  double Percentile(double q) const;

  static size_t BucketIndex(uint64_t value) {
    if (value < kSubBuckets) {
      return static_cast<size_t>(value);
    }
    const int width = std::bit_width(value);  // >= kSubBucketBits + 1
    const int shift = width - static_cast<int>(kSubBucketBits) - 1;
    const size_t sub =
        static_cast<size_t>(value >> shift) - kSubBuckets;
    return (static_cast<size_t>(width) - kSubBucketBits) * kSubBuckets + sub;
  }

  // Exclusive upper bound of bucket `index` (its smallest non-member value).
  static uint64_t BucketUpperBound(size_t index) {
    if (index < kSubBuckets) {
      return static_cast<uint64_t>(index) + 1;
    }
    const size_t octave = index / kSubBuckets;  // >= 1
    const size_t sub = index % kSubBuckets;
    const int shift = static_cast<int>(octave) - 1;
    return static_cast<uint64_t>(kSubBuckets + sub + 1) << shift;
  }

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> count_{0};
};

// Monotonic clock in nanoseconds: the time base of every latency histogram
// and timeline span.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Observes the nanoseconds from construction to destruction into `hist`.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& hist) : hist_(hist), start_ns_(NowNs()) {}
  ~ScopedTimer() { hist_.Observe(static_cast<uint64_t>(NowNs() - start_ns_)); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram& hist_;
  const int64_t start_ns_;
};

// Label set attached to one metric within a family, e.g.
// {{"proxy", "0"}, {"topic", "proxy0.q1.in"}}. Rendered in the given order.
using Labels = std::vector<std::pair<std::string, std::string>>;

// A process-wide collection of labeled metric families.
//
// Get*(name, help, labels) registers on first use and returns the existing
// instrument on every later call with the same (name, labels). A family's
// type is fixed by its first registration; re-registering under a
// different type throws std::logic_error.
//
// Collectors are callbacks run (outside the registry mutex) at the start of
// every render/snapshot; they pull values from external sources — e.g.
// broker topic byte counters and slab occupancy — into gauges, keeping
// those hot paths untouched by the registry.
class Registry {
 public:
  Counter& GetCounter(const std::string& name, const std::string& help,
                      const Labels& labels = {});
  Gauge& GetGauge(const std::string& name, const std::string& help,
                  const Labels& labels = {});
  Histogram& GetHistogram(const std::string& name, const std::string& help,
                          const Labels& labels = {});

  void AddCollector(std::function<void()> collector);

  // Prometheus-style text exposition. Counters and gauges render one sample
  // per label set; histograms render as summaries (quantile samples plus
  // _sum and _count). Deterministic: families sorted by name, label sets
  // sorted within a family.
  std::string RenderText();

  // The same data as a single JSON object:
  // {"counters":{...},"gauges":{...},"histograms":{"name{labels}":
  //   {"count":..,"sum":..,"p50":..,"p95":..,"p99":..}}}
  std::string RenderJson();

 private:
  enum class Type { kCounter, kGauge, kHistogram };
  struct Family {
    std::string help;
    Type type = Type::kCounter;
    // Keyed by the rendered label string (`k1="v1",k2="v2"`; empty for the
    // unlabeled metric). std::map keeps exposition order deterministic.
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
  };

  Family& GetFamily(const std::string& name, const std::string& help,
                    Type type);
  void RunCollectors();

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
  std::vector<std::function<void()>> collectors_;
};

// Renders a label set as `k1="v1",k2="v2"` (no braces; empty for no labels).
// Values are escaped as the Prometheus text format requires (`\` -> `\\`,
// `"` -> `\"`, newline -> `\n`): label values can come from peers (topic
// names), and an unescaped one could end its sample line and forge others.
std::string RenderLabels(const Labels& labels);

}  // namespace privapprox::metrics

#endif  // PRIVAPPROX_METRICS_METRICS_H_
