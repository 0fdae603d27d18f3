// End-to-end integration tests: the full client -> proxy -> aggregator
// pipeline via PrivApproxSystem, on synthetic and case-study workloads,
// including the budget path, historical analytics, and inversion mode.

#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "core/privacy.h"
#include "proxy/proxy.h"
#include "system/system.h"
#include "workload/electricity.h"
#include "workload/taxi.h"

namespace privapprox::system {
namespace {

core::Query SpeedQuery() {
  return core::QueryBuilder()
      .WithId(1)
      .WithSql("SELECT speed FROM vehicle")
      .WithAnswerFormat(core::AnswerFormat::UniformNumeric(0, 100, 10, true))
      .WithFrequencyMs(1000)
      .WithWindowMs(10000)
      .WithSlideMs(10000)
      .Build();
}

core::ExecutionParams ExactParams() {
  core::ExecutionParams params;
  params.sampling_fraction = 1.0;
  params.randomization = {1.0, 0.5};
  return params;
}

void LoadSpeed(PrivApproxSystem& sys, size_t index, double speed) {
  auto& db = sys.client(index).database();
  if (!db.HasTable("vehicle")) {
    db.CreateTable("vehicle", {"speed"});
  }
  db.GetTable("vehicle").Insert(500, {localdb::Value(speed)});
}

TEST(SystemTest, MetricsExpositionCoversPipelineFamilies) {
  SystemConfig config;
  config.num_clients = 30;
  config.num_proxies = 2;
  config.metrics.timeline = true;
  PrivApproxSystem sys(config);
  for (size_t i = 0; i < config.num_clients; ++i) {
    LoadSpeed(sys, i, 25.0);
  }
  sys.SubmitQuery(SpeedQuery(), ExactParams());
  sys.RunEpoch(1000);

  const std::string text = sys.MetricsText();
  for (const char* family :
       {"privapprox_epochs_total", "privapprox_participants_total",
        "privapprox_shares_sent_total", "privapprox_shares_forwarded_total",
        "privapprox_shares_consumed_total",
        "privapprox_malformed_dropped_total", "privapprox_stage_ns",
        "privapprox_proxy_forwarded_total",
        "privapprox_agg_decode_ns", "privapprox_agg_join_ns",
        "privapprox_agg_evict_ns",
        "privapprox_topic_records_in", "privapprox_topic_slab_used_bytes"}) {
    EXPECT_NE(text.find(family), std::string::npos) << family;
  }
  const std::string json = sys.MetricsJson();
  EXPECT_NE(json.find("\"privapprox_epochs_total\":1"), std::string::npos);
  // The timeline captured the epoch's stage spans, named like the
  // privapprox_stage_ns labels.
  const std::string trace = sys.TimelineJson();
  for (const char* stage :
       {"epoch", "answer_shard", "proxy_forward", "agg_consume"}) {
    EXPECT_NE(trace.find("\"name\":\"" + std::string(stage) + "\""),
              std::string::npos)
        << stage;
  }
}

TEST(SystemTest, ValidatesConfig) {
  SystemConfig config;
  config.num_clients = 0;
  EXPECT_THROW(PrivApproxSystem{config}, std::invalid_argument);
  config.num_clients = 1;
  config.num_proxies = 1;
  EXPECT_THROW(PrivApproxSystem{config}, std::invalid_argument);
}

TEST(SystemTest, RunEpochWithoutQueryThrows) {
  SystemConfig config;
  config.num_clients = 2;
  PrivApproxSystem sys(config);
  EXPECT_THROW(sys.RunEpoch(0), std::logic_error);
}

// A Query is a plain struct, so a signed one can still carry a slide longer
// than its window or QID 0. SubmitQuery refuses such a query before any
// side effect — no client learns of it — so epochs keep running for the
// queries the system did admit, at every worker count.
TEST(SystemTest, RejectedSubmitLeavesEpochsRunning) {
  core::Query long_slide = SpeedQuery();
  long_slide.query_id = 2;
  long_slide.sliding_interval_ms = long_slide.window_length_ms + 1;
  long_slide.Sign();
  core::Query no_id = SpeedQuery();
  no_id.query_id = 0;
  no_id.Sign();
  for (const size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    SystemConfig config;
    config.num_clients = 20;
    config.pipeline.num_worker_threads = workers;
    PrivApproxSystem sys(config);
    for (size_t i = 0; i < config.num_clients; ++i) {
      LoadSpeed(sys, i, 25.0);
    }
    EXPECT_THROW(sys.SubmitQuery(long_slide, ExactParams()),
                 std::invalid_argument);
    EXPECT_EQ(sys.client(0).num_subscriptions(), 0u);
    sys.SubmitQuery(SpeedQuery(), ExactParams());
    EXPECT_THROW(sys.SubmitQuery(no_id, ExactParams()), std::invalid_argument);
    EXPECT_EQ(sys.num_queries(), 1u);
    EXPECT_EQ(sys.client(0).num_subscriptions(), 1u);

    const EpochStats stats = sys.RunEpoch(5000);
    EXPECT_EQ(stats.participants, config.num_clients);
    EXPECT_EQ(stats.shares_consumed, 2 * config.num_clients);
    sys.Flush();
    const std::vector<aggregator::WindowedResult> results = sys.TakeResults();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].query_id, 1u);
    EXPECT_NEAR(results[0].result.buckets[2].estimate.value, 20.0, 1e-9);
  }
}

TEST(SystemTest, ExactPipelineEndToEnd) {
  SystemConfig config;
  config.num_clients = 60;
  PrivApproxSystem sys(config);
  for (size_t i = 0; i < 60; ++i) {
    LoadSpeed(sys, i, i < 45 ? 25.0 : 55.0);  // 75% bucket 2, 25% bucket 5
  }
  sys.SubmitQuery(SpeedQuery(), ExactParams());
  const EpochStats stats = sys.RunEpoch(5000);
  EXPECT_EQ(stats.participants, 60u);
  EXPECT_EQ(stats.shares_sent, 120u);
  EXPECT_EQ(stats.shares_forwarded, 120u);
  EXPECT_EQ(stats.shares_consumed, 120u);
  EXPECT_NE(sys.MetricsText().find("privapprox_epochs_total 1\n"),
            std::string::npos);
  // The timeline is off by default: no spans recorded.
  EXPECT_NE(sys.TimelineJson().find("\"traceEvents\":[]"), std::string::npos);
  sys.AdvanceWatermark(10000);
  ASSERT_EQ(sys.results().size(), 1u);
  const auto& result = sys.results()[0].result;
  EXPECT_NEAR(result.buckets[2].estimate.value, 45.0, 1e-9);
  EXPECT_NEAR(result.buckets[5].estimate.value, 15.0, 1e-9);
}

TEST(SystemTest, RandomizedPipelineDebiasesAccurately) {
  SystemConfig config;
  config.num_clients = 4000;
  PrivApproxSystem sys(config);
  for (size_t i = 0; i < 4000; ++i) {
    LoadSpeed(sys, i, i < 2400 ? 25.0 : 55.0);  // 60% / 40%
  }
  core::ExecutionParams params;
  params.sampling_fraction = 0.8;
  params.randomization = {0.7, 0.6};
  sys.SubmitQuery(SpeedQuery(), params);
  sys.RunEpoch(5000);
  sys.Flush();
  ASSERT_EQ(sys.results().size(), 1u);
  const auto& result = sys.results()[0].result;
  EXPECT_NEAR(result.buckets[2].estimate.value, 2400.0, 250.0);
  EXPECT_NEAR(result.buckets[5].estimate.value, 1600.0, 250.0);
  // Both within the stated error bound (generous multiple).
  EXPECT_LE(std::fabs(result.buckets[2].estimate.value - 2400.0),
            2.0 * result.buckets[2].estimate.error);
}

TEST(SystemTest, SamplingReducesParticipantsAndTraffic) {
  SystemConfig config;
  config.num_clients = 2000;
  config.seed = 5;
  PrivApproxSystem full(config);
  PrivApproxSystem sampled(config);
  for (size_t i = 0; i < 2000; ++i) {
    LoadSpeed(full, i, 25.0);
    LoadSpeed(sampled, i, 25.0);
  }
  core::ExecutionParams params = ExactParams();
  full.SubmitQuery(SpeedQuery(), params);
  params.sampling_fraction = 0.4;
  params.randomization = {0.9, 0.6};
  sampled.SubmitQuery(SpeedQuery(), params);
  const EpochStats full_stats = full.RunEpoch(5000);
  const EpochStats sampled_stats = sampled.RunEpoch(5000);
  EXPECT_EQ(full_stats.participants, 2000u);
  EXPECT_NEAR(static_cast<double>(sampled_stats.participants), 800.0, 80.0);
  EXPECT_LT(sampled.ClientToProxyBytes(), full.ClientToProxyBytes());
}

// Client -> proxy traffic counts every share a client sent, failed over or
// not: when every forward times out, all shares fail over into their own
// proxy's lanes, so the run has the fault-free run's topics, lane in-topic
// records and uplink bytes, and the proxies' forwarded counters count them.
TEST(SystemTest, ClientToProxyBytesCountsFailedOverShares) {
  struct Run {
    EpochStats stats;
    uint64_t bytes = 0;
    std::vector<std::string> topics;
    std::vector<uint64_t> lane_in_records;  // one per proxy
    uint64_t proxy_forwarded = 0;  // privapprox_proxy_forwarded_total, summed
  };
  const auto run = [](std::optional<fault::FaultPlan> plan) {
    SystemConfig config;
    config.num_clients = 200;
    config.seed = 5;
    config.fault = std::move(plan);
    PrivApproxSystem sys(config);
    for (size_t i = 0; i < config.num_clients; ++i) {
      LoadSpeed(sys, i, 25.0);
    }
    sys.SubmitQuery(SpeedQuery(), ExactParams());
    Run out;
    out.stats = sys.RunEpoch(5000);
    sys.Flush();
    const std::vector<aggregator::WindowedResult> results = sys.TakeResults();
    EXPECT_EQ(results.size(), 1u);
    if (!results.empty()) {
      EXPECT_EQ(results[0].result.participants, config.num_clients);
    }
    out.bytes = sys.ClientToProxyBytes();
    out.topics = sys.broker().TopicNames();
    for (size_t j = 0; j < config.num_proxies; ++j) {
      out.lane_in_records.push_back(
          sys.broker().GetTopic(proxy::LaneInTopic(j, 1)).metrics().records_in);
      out.proxy_forwarded +=
          sys.metrics_registry()
              .GetCounter("privapprox_proxy_forwarded_total", "",
                          {{"proxy", std::to_string(j)}})
              .Value();
    }
    return out;
  };
  const Run fault_free = run(std::nullopt);
  fault::FaultPlan plan;
  plan.timeout_probability = 1.0;
  const Run failed_over = run(plan);
  EXPECT_EQ(failed_over.stats.recovery_failovers, 400u);
  EXPECT_GT(fault_free.bytes, 0u);
  EXPECT_EQ(failed_over.bytes, fault_free.bytes);
  EXPECT_EQ(failed_over.topics, fault_free.topics);
  EXPECT_EQ(failed_over.lane_in_records, fault_free.lane_in_records);
  EXPECT_EQ(failed_over.proxy_forwarded, failed_over.stats.shares_forwarded);
  EXPECT_EQ(failed_over.stats.shares_forwarded, 400u);
}

TEST(SystemTest, BudgetPathChoosesParamsAndRuns) {
  SystemConfig config;
  config.num_clients = 500;
  PrivApproxSystem sys(config);
  for (size_t i = 0; i < 500; ++i) {
    LoadSpeed(sys, i, 25.0);
  }
  core::QueryBudget budget;
  budget.max_epsilon = 1.5;
  const core::ExecutionParams params =
      sys.SubmitQuery(SpeedQuery(), budget, 0.6);
  const double eps = core::AmplifyBySampling(
      core::EpsilonDp(params.randomization), params.sampling_fraction);
  EXPECT_LE(eps, 1.5 + 1e-9);
  sys.RunEpoch(5000);
  sys.Flush();
  EXPECT_EQ(sys.results().size(), 1u);
}

TEST(SystemTest, MultiEpochSlidingWindows) {
  SystemConfig config;
  config.num_clients = 30;
  PrivApproxSystem sys(config);
  for (size_t i = 0; i < 30; ++i) {
    LoadSpeed(sys, i, 25.0);
  }
  // Window 10s sliding 5s.
  const core::Query query = core::QueryBuilder()
                                .WithId(1)
                                .WithSql("SELECT speed FROM vehicle")
                                .WithAnswerFormat(
                                    core::AnswerFormat::UniformNumeric(
                                        0, 100, 10, true))
                                .WithFrequencyMs(5000)
                                .WithWindowMs(10000)
                                .WithSlideMs(5000)
                                .Build();
  sys.SubmitQuery(query, ExactParams());
  for (int64_t now = 5000; now <= 30000; now += 5000) {
    // Keep each client's data fresh so every epoch has an answer.
    for (size_t i = 0; i < 30; ++i) {
      sys.client(i).database().GetTable("vehicle").Insert(
          now - 100, {localdb::Value(25.0)});
    }
    sys.RunEpoch(now);
    sys.AdvanceWatermark(now);
  }
  sys.Flush();
  // Sliding windows: each epoch's answers land in two windows.
  EXPECT_GE(sys.results().size(), 5u);
  for (const auto& windowed : sys.results()) {
    EXPECT_GT(windowed.result.participants, 0u);
  }
}

TEST(SystemTest, HistoricalAnalyticsOverCollectedAnswers) {
  SystemConfig config;
  config.num_clients = 100;
  config.historical.enabled = true;
  PrivApproxSystem sys(config);
  for (size_t i = 0; i < 100; ++i) {
    LoadSpeed(sys, i, i < 70 ? 25.0 : 55.0);
  }
  sys.SubmitQuery(SpeedQuery(), ExactParams());
  sys.RunEpoch(5000);
  sys.Flush();
  const core::QueryResult batch =
      sys.RunHistorical(1, 0, 10000, aggregator::BatchQueryBudget{1.0});
  EXPECT_EQ(batch.participants, 100u);
  EXPECT_NEAR(batch.buckets[2].estimate.value, 70.0, 1e-9);
  EXPECT_NEAR(batch.buckets[5].estimate.value, 30.0, 1e-9);
  // The store is the broker's `historical` topic, metered like every other:
  // one 14-byte record (QID, bit count, two answer bytes) per answer.
  const std::string text = sys.MetricsText();
  for (const char* sample :
       {"privapprox_topic_records_in{topic=\"historical\"} 100\n",
        "privapprox_topic_bytes_in{topic=\"historical\"} 1400\n"}) {
    EXPECT_NE(text.find(sample), std::string::npos) << sample;
  }
  EXPECT_THROW(
      sys.RunHistorical(2, 0, 10000, aggregator::BatchQueryBudget{1.0}),
      std::invalid_argument);
}

// Two queries of 11 and 81 buckets over one fleet, the tee on: streams 4
// epochs, then returns every double of query `qid`'s batch results at
// aggregator budgets 1.0 and 0.3 over the whole run.
std::vector<double> TwoQueryHistoricalDoubles(bool with_narrow,
                                              bool with_wide, uint64_t qid) {
  constexpr size_t kClients = 300;
  SystemConfig config;
  config.num_clients = kClients;
  config.seed = 21;
  config.historical.enabled = true;
  PrivApproxSystem sys(config);
  core::ExecutionParams params;
  params.sampling_fraction = 0.7;
  params.randomization = {0.9, 0.4};
  const auto query = [](uint64_t id, size_t buckets) {
    return core::QueryBuilder()
        .WithId(id)
        .WithSql("SELECT speed FROM vehicle")
        .WithAnswerFormat(
            core::AnswerFormat::UniformNumeric(0, 100, buckets - 1, true))
        .WithFrequencyMs(1000)
        .WithWindowMs(10000)
        .WithSlideMs(10000)
        .Build();
  };
  if (with_narrow) {
    sys.SubmitQuery(query(11, 11), params);
  }
  if (with_wide) {
    sys.SubmitQuery(query(81, 81), params);
  }
  for (size_t i = 0; i < kClients; ++i) {
    sys.client(i).database().CreateTable("vehicle", {"speed"});
  }
  for (int64_t epoch = 1; epoch <= 4; ++epoch) {
    const int64_t now = epoch * 10000;
    for (size_t i = 0; i < kClients; ++i) {
      sys.client(i).database().GetTable("vehicle").Insert(
          now - 500, {localdb::Value(static_cast<double>((i * 7 + epoch * 13) %
                                                         100))});
    }
    sys.RunEpoch(now);
    sys.AdvanceWatermark(now);
  }
  sys.Flush();
  std::vector<double> doubles;
  for (const double budget : {1.0, 0.3}) {
    const core::QueryResult result = sys.RunHistorical(
        qid, 0, 50000, aggregator::BatchQueryBudget{budget});
    doubles.push_back(static_cast<double>(result.participants));
    for (const auto& bucket : result.buckets) {
      doubles.push_back(bucket.estimate.value);
      doubles.push_back(bucket.estimate.error);
      doubles.push_back(bucket.randomized_count);
    }
  }
  return doubles;
}

TEST(SystemTest, EachQueryAnswersHistoricallyAsIfAlone) {
  // The store is keyed by QID and the second round draws only for the
  // requested query's records, so each query's batch results match, double
  // for double, a system in which it ran alone.
  for (const uint64_t qid : {11u, 81u}) {
    SCOPED_TRACE("qid=" + std::to_string(qid));
    const std::vector<double> joint =
        TwoQueryHistoricalDoubles(true, true, qid);
    const std::vector<double> alone =
        TwoQueryHistoricalDoubles(qid == 11, qid == 81, qid);
    ASSERT_EQ(joint.size(), 2 * (1 + 3 * qid));
    EXPECT_GT(joint[0], 0.0);
    ASSERT_EQ(joint.size(), alone.size());
    for (size_t i = 0; i < joint.size(); ++i) {
      EXPECT_EQ(joint[i], alone[i]) << "double " << i;
    }
  }
}

// examples/historical_batch's run: 1,500 taxi clients streaming 8 epochs
// with the answer tap on, then batch queries over everything at aggregator
// budgets 0.3 and 0.1 — each stored answer is kept by one Bernoulli draw,
// taken in tap order. Returns every double of both results.
std::vector<double> HistoricalBatchDoubles(size_t workers) {
  constexpr size_t kClients = 1500;
  constexpr int64_t kSlideMs = 10 * 1000;
  SystemConfig config;
  config.num_clients = kClients;
  config.seed = 33;
  config.historical.enabled = true;
  config.pipeline.num_worker_threads = workers;
  PrivApproxSystem sys(config);
  workload::TaxiGenerator generator(44);
  core::ExecutionParams params;
  params.sampling_fraction = 0.8;
  params.randomization = {0.9, 0.3};
  sys.SubmitQuery(
      workload::TaxiGenerator::MakeDistanceQuery(5, kSlideMs, kSlideMs),
      params);
  for (int epoch = 1; epoch <= 8; ++epoch) {
    const int64_t now = epoch * kSlideMs;
    for (size_t i = 0; i < kClients; ++i) {
      generator.PopulateClient(sys.client(i).database(), 1, now - kSlideMs,
                               now);
    }
    sys.RunEpoch(now);
    sys.AdvanceWatermark(now);
  }
  sys.Flush();
  std::vector<double> doubles;
  for (const double budget : {0.3, 0.1}) {
    const core::QueryResult result =
        sys.RunHistorical(5, 0, 90000, aggregator::BatchQueryBudget{budget});
    doubles.push_back(static_cast<double>(result.participants));
    for (const auto& bucket : result.buckets) {
      doubles.push_back(bucket.estimate.value);
      doubles.push_back(bucket.estimate.error);
      doubles.push_back(bucket.randomized_count);
    }
  }
  return doubles;
}

TEST(SystemTest, HistoricalSamplingIsWorkerCountInvariant) {
  // The tap's order is the join shards' order, and the shards are the lane
  // partitions, so the second-round sample is the same at every worker
  // count.
  const std::vector<double> one = HistoricalBatchDoubles(1);
  for (const size_t workers : {2u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const std::vector<double> many = HistoricalBatchDoubles(workers);
    ASSERT_EQ(many.size(), one.size());
    for (size_t i = 0; i < one.size(); ++i) {
      EXPECT_EQ(many[i], one[i]) << "double " << i;
    }
  }
}

TEST(SystemTest, HistoricalDisabledThrows) {
  SystemConfig config;
  config.num_clients = 2;
  PrivApproxSystem sys(config);
  sys.SubmitQuery(SpeedQuery(), ExactParams());
  EXPECT_THROW(sys.RunHistorical(1, 0, 1, aggregator::BatchQueryBudget{1.0}),
               std::logic_error);
}

TEST(SystemTest, InvertedSystemRecoversCounts) {
  SystemConfig config;
  config.num_clients = 50;
  config.invert_answers = true;
  PrivApproxSystem sys(config);
  for (size_t i = 0; i < 50; ++i) {
    LoadSpeed(sys, i, 25.0);  // everyone in bucket 2
  }
  sys.SubmitQuery(SpeedQuery(), ExactParams());
  sys.RunEpoch(5000);
  sys.Flush();
  ASSERT_EQ(sys.results().size(), 1u);
  EXPECT_NEAR(sys.results()[0].result.buckets[2].estimate.value, 50.0, 1e-6);
  EXPECT_NEAR(sys.results()[0].result.buckets[0].estimate.value, 0.0, 1e-6);
}

TEST(SystemTest, TakeResultsDrains) {
  SystemConfig config;
  config.num_clients = 5;
  PrivApproxSystem sys(config);
  for (size_t i = 0; i < 5; ++i) {
    LoadSpeed(sys, i, 25.0);
  }
  sys.SubmitQuery(SpeedQuery(), ExactParams());
  sys.RunEpoch(5000);
  sys.Flush();
  EXPECT_EQ(sys.TakeResults().size(), 1u);
  EXPECT_TRUE(sys.results().empty());
}

TEST(SystemTest, TaxiCaseStudySmoke) {
  SystemConfig config;
  config.num_clients = 300;
  PrivApproxSystem sys(config);
  workload::TaxiGenerator generator(13);
  for (size_t i = 0; i < 300; ++i) {
    generator.PopulateClient(sys.client(i).database(), 3, 0, 5000);
  }
  const core::Query query =
      workload::TaxiGenerator::MakeDistanceQuery(9, 10000, 10000);
  core::ExecutionParams params;
  params.sampling_fraction = 0.9;
  params.randomization = {0.9, 0.3};
  sys.SubmitQuery(query, params);
  sys.RunEpoch(5000);
  sys.Flush();
  ASSERT_EQ(sys.results().size(), 1u);
  const auto& result = sys.results()[0].result;
  EXPECT_GT(result.participants, 200u);
  // The first bucket should hold roughly a third of the population.
  EXPECT_NEAR(result.buckets[0].estimate.value / 300.0, 0.3357, 0.15);
}

TEST(SystemTest, ElectricityCaseStudySmoke) {
  SystemConfig config;
  config.num_clients = 200;
  PrivApproxSystem sys(config);
  workload::ElectricityGenerator generator(17);
  const int64_t window = 30 * 60 * 1000;
  for (size_t i = 0; i < 200; ++i) {
    generator.PopulateClient(sys.client(i).database(), 0, window, 60 * 1000);
  }
  const core::Query query =
      workload::ElectricityGenerator::MakeUsageQuery(10, window, window);
  sys.SubmitQuery(query, ExactParams());
  sys.RunEpoch(window);
  sys.Flush();
  ASSERT_EQ(sys.results().size(), 1u);
  // Every household lands in exactly one bucket: totals must equal clients.
  double total = 0.0;
  for (const auto& bucket : sys.results()[0].result.buckets) {
    total += bucket.estimate.value;
  }
  EXPECT_NEAR(total, 200.0, 1e-6);
}

}  // namespace
}  // namespace privapprox::system
