// Tests for the metrics subsystem (src/metrics/): instruments, the
// registry's exposition formats, histogram percentile accuracy against a
// sorted reference, concurrent updates from many threads (run under
// -DPRIVAPPROX_SANITIZE=thread to check the lock-free contract), and the
// chrome://tracing timeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "metrics/metrics.h"
#include "metrics/timeline.h"

namespace privapprox::metrics {
namespace {

// ------------------------------------------------------------- instruments

TEST(CounterTest, IncrementAccumulates) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(GaugeTest, SetAddSetMax) {
  Gauge g;
  g.Set(10);
  EXPECT_EQ(g.Value(), 10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
  g.SetMax(5);  // below current: no-op
  EXPECT_EQ(g.Value(), 7);
  g.SetMax(100);
  EXPECT_EQ(g.Value(), 100);
}

TEST(HistogramTest, BucketIndexIsMonotoneAndBoundsAreConsistent) {
  // Every value must land in a bucket whose bounds contain it, and larger
  // values must never land in smaller buckets.
  size_t prev_index = 0;
  for (uint64_t v : {0ull, 1ull, 7ull, 8ull, 9ull, 15ull, 16ull, 100ull,
                     1000ull, 123456ull, 1ull << 40, ~0ull >> 1}) {
    const size_t index = Histogram::BucketIndex(v);
    EXPECT_GE(index, prev_index) << "v=" << v;
    prev_index = index;
    EXPECT_LT(v, Histogram::BucketUpperBound(index)) << "v=" << v;
    if (index > 0) {
      EXPECT_GE(v, Histogram::BucketUpperBound(index - 1)) << "v=" << v;
    }
  }
}

TEST(HistogramTest, PercentileTracksSortedReferenceWithin12Percent) {
  // The histogram's quantile estimate must stay within the documented
  // 1/kSubBuckets (12.5%) relative error of the exact sorted-sample
  // quantile, across a skewed latency-like distribution.
  Histogram hist;
  std::vector<uint64_t> samples;
  std::mt19937_64 rng(7);
  std::lognormal_distribution<double> latency(10.0, 1.5);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t v = static_cast<uint64_t>(latency(rng));
    samples.push_back(v);
    hist.Observe(v);
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.5, 0.95, 0.99}) {
    // Same rank convention as the implementation: the rank-th smallest
    // sample, 1-indexed, rank = floor(q * N) clamped to [1, N].
    const size_t rank = std::clamp<size_t>(
        static_cast<size_t>(q * static_cast<double>(samples.size())), 1,
        samples.size());
    const double exact = static_cast<double>(samples[rank - 1]);
    const double est = hist.Percentile(q);
    // Estimate reports the bucket's inclusive upper bound: never below the
    // exact sample, and at most one sub-bucket (12.5%) above it.
    EXPECT_GE(est, exact) << "q=" << q;
    EXPECT_LE(est, exact * 1.125 + 1.0) << "q=" << q;
  }
  EXPECT_EQ(hist.Count(), 20000u);
}

TEST(HistogramTest, EmptyPercentileIsZero) {
  Histogram hist;
  EXPECT_EQ(hist.Percentile(0.5), 0.0);
  EXPECT_EQ(hist.Count(), 0u);
  EXPECT_EQ(hist.Sum(), 0u);
}

// ---------------------------------------------------------------- registry

TEST(RegistryTest, GetReturnsSameInstrumentForSameNameAndLabels) {
  Registry reg;
  Counter& a = reg.GetCounter("requests_total", "Requests.");
  Counter& b = reg.GetCounter("requests_total", "Requests.");
  EXPECT_EQ(&a, &b);
  Counter& labeled = reg.GetCounter("requests_total", "Requests.",
                                    {{"proxy", "0"}});
  EXPECT_NE(&a, &labeled);
}

TEST(RegistryTest, TypeMismatchThrows) {
  Registry reg;
  reg.GetCounter("x_total", "X.");
  EXPECT_THROW(reg.GetGauge("x_total", "X."), std::logic_error);
  EXPECT_THROW(reg.GetHistogram("x_total", "X."), std::logic_error);
}

TEST(RegistryTest, TextExpositionGolden) {
  // Pin the exact exposition byte-for-byte: deterministic family order
  // (sorted by name), label rendering, HELP/TYPE comments, and the summary
  // form for histograms.
  Registry reg;
  reg.GetCounter("pa_shares_total", "Shares seen.").Increment(7);
  reg.GetCounter("pa_shares_total", "Shares seen.", {{"proxy", "1"}})
      .Increment(3);
  reg.GetGauge("pa_depth", "Channel depth.").Set(5);
  Histogram& h = reg.GetHistogram("pa_latency_ns", "Latency.");
  h.Observe(4);
  h.Observe(4);
  const std::string expected =
      "# HELP pa_depth Channel depth.\n"
      "# TYPE pa_depth gauge\n"
      "pa_depth 5\n"
      "# HELP pa_latency_ns Latency.\n"
      "# TYPE pa_latency_ns summary\n"
      "pa_latency_ns{quantile=\"0.5\"} 4\n"
      "pa_latency_ns{quantile=\"0.95\"} 4\n"
      "pa_latency_ns{quantile=\"0.99\"} 4\n"
      "pa_latency_ns_sum 8\n"
      "pa_latency_ns_count 2\n"
      "# HELP pa_shares_total Shares seen.\n"
      "# TYPE pa_shares_total counter\n"
      "pa_shares_total 7\n"
      "pa_shares_total{proxy=\"1\"} 3\n";
  EXPECT_EQ(reg.RenderText(), expected);
}

TEST(RegistryTest, JsonSnapshotContainsAllSections) {
  Registry reg;
  reg.GetCounter("c_total", "C.").Increment(2);
  reg.GetGauge("g", "G.").Set(-4);
  reg.GetHistogram("h_ns", "H.").Observe(100);
  const std::string json = reg.RenderJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"c_total\":2"), std::string::npos);
  EXPECT_NE(json.find("\"g\":-4"), std::string::npos);
  EXPECT_NE(json.find("\"h_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

// A label value may come from a peer (a topic name), so it can hold any
// byte. The text exposition escapes it as the Prometheus format requires,
// keeping the sample on one line; the JSON key escapes it again.
TEST(RegistryTest, LabelValuesAreEscapedInTextAndJson) {
  Registry reg;
  reg.GetGauge("g", "G.", {{"topic", "a\"b\\c\nd\x01"}}).Set(5);
  EXPECT_EQ(reg.RenderText(),
            "# HELP g G.\n"
            "# TYPE g gauge\n"
            "g{topic=\"a\\\"b\\\\c\\nd\x01\"} 5\n");
  EXPECT_EQ(reg.RenderJson(),
            "{\"counters\":{},\"gauges\":{"
            "\"g{topic=\\\"a\\\\\\\"b\\\\\\\\c\\\\nd\\u0001\\\"}\":5},"
            "\"histograms\":{}}");
}

TEST(RegistryTest, CollectorRunsOnRender) {
  Registry reg;
  Gauge& g = reg.GetGauge("pulled", "Pulled by collector.");
  int pulls = 0;
  reg.AddCollector([&] {
    ++pulls;
    g.Set(123);
  });
  const std::string text = reg.RenderText();
  EXPECT_EQ(pulls, 1);
  EXPECT_NE(text.find("pulled 123"), std::string::npos);
  reg.RenderJson();
  EXPECT_EQ(pulls, 2);
}

TEST(RegistryTest, CollectorMayTouchRegistryWithoutDeadlock) {
  // Collectors run outside the registry mutex, so a collector that itself
  // calls GetGauge must not deadlock.
  Registry reg;
  reg.AddCollector(
      [&] { reg.GetGauge("late", "Registered by collector.").Set(1); });
  EXPECT_NE(reg.RenderText().find("late 1"), std::string::npos);
}

TEST(RegistryTest, ConcurrentUpdatesAndRendersAreClean) {
  // Hammer one counter/histogram from many threads while another thread
  // renders; total counts must be exact and TSan (CI job) must stay quiet.
  Registry reg;
  Counter& c = reg.GetCounter("hammer_total", "Hammered.");
  Histogram& h = reg.GetHistogram("hammer_ns", "Hammered.");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.Increment();
        h.Observe(static_cast<uint64_t>(t * kPerThread + i));
        if (i % 4096 == 0) {
          // Late registration from a worker: exercises the registry mutex
          // against concurrent renders.
          reg.GetCounter("hammer_total", "Hammered.",
                         {{"thread", std::to_string(t)}})
              .Increment();
        }
      }
    });
  }
  workers.emplace_back([&] {
    for (int i = 0; i < 50; ++i) {
      reg.RenderText();
      reg.RenderJson();
    }
  });
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.Count(), static_cast<uint64_t>(kThreads) * kPerThread);
}

// ---------------------------------------------------------------- timeline

TEST(TimelineTest, DisabledRecordsNothing) {
  EpochTimeline timeline;
  {
    EpochTimeline::Span span(timeline, "work");
  }
  EXPECT_EQ(timeline.size(), 0u);
}

TEST(TimelineTest, EnabledSpansAppearInChromeTracingJson) {
  EpochTimeline timeline;
  timeline.set_enabled(true);
  {
    EpochTimeline::Span outer(timeline, "epoch");
    EpochTimeline::Span inner(timeline, "answer_shard");
  }
  ASSERT_EQ(timeline.size(), 2u);  // inner destructs (records) first
  const std::string json = timeline.ToChromeTracingJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"epoch\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"answer_shard\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  timeline.Clear();
  EXPECT_EQ(timeline.size(), 0u);
  EXPECT_NE(timeline.ToChromeTracingJson().find("\"traceEvents\":[]"),
            std::string::npos);
}

TEST(TimelineTest, ConcurrentSpansRecordEveryEvent) {
  EpochTimeline timeline;
  timeline.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        EpochTimeline::Span span(timeline, "shard");
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(timeline.size(),
            static_cast<size_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace privapprox::metrics
