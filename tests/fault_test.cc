// Fault-injection and recovery suite (src/fault/fault.h + system wiring).
//
// Two invariants anchor the fault layer:
//   1. Zero plan == no plan: a FaultPlan with all probabilities at zero must
//      leave every observable — fired windows bit for bit, EpochStats,
//      broker topic byte counters — identical to a system with no plan at
//      all, at any worker count.
//   2. Under any seeded plan the run completes without deadlock, every
//      worker count produces the 1-worker results (fault decisions are
//      (seed, MID, proxy) hashes, never wall-clock or thread order), and the
//      true population count stays inside the fault-widened confidence
//      interval.
//
// The chaos matrix in CI replays this suite across seeds under TSan; the
// PRIVAPPROX_CHAOS_SEED env var narrows the seed loop to one seed per job
// and PRIVAPPROX_FAULT_SUMMARY appends a JSON summary line per run for the
// workflow artifact.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/error_estimation.h"
#include "fault/fault.h"
#include "system/system.h"

namespace privapprox::system {
namespace {

constexpr size_t kNumClients = 400;
constexpr size_t kNumProxies = 3;
constexpr double kSpeed = 25.0;   // every client -> bucket 2 of [0,100)/10
constexpr size_t kTrueBucket = 2;

core::Query SpeedQuery() {
  return core::QueryBuilder()
      .WithId(1)
      .WithSql("SELECT speed FROM vehicle")
      .WithAnswerFormat(core::AnswerFormat::UniformNumeric(0, 100, 10, true))
      .WithFrequencyMs(5000)
      .WithWindowMs(10000)
      .WithSlideMs(10000)  // tumbling: each epoch in exactly one window
      .Build();
}

SystemConfig BaseConfig(size_t workers, std::optional<fault::FaultPlan> plan) {
  SystemConfig config;
  config.num_clients = kNumClients;
  config.num_proxies = kNumProxies;
  config.seed = 99;
  config.confidence = 0.99;
  config.pipeline.num_worker_threads = workers;
  config.fault = std::move(plan);
  return config;
}

// The full observable output of one epoch schedule: per-epoch stats, fired
// windows, per-topic counters, and registry totals for the fault families.
struct RunSnapshot {
  std::vector<EpochStats> epochs;
  std::vector<aggregator::WindowedResult> results;
  std::vector<std::string> topic_names;
  std::vector<broker::TopicMetrics> topic_metrics;
  std::vector<std::pair<std::string, uint64_t>> fault_counters;
};

const char* const kFaultCounterNames[] = {
    "privapprox_fault_shares_dropped_total",
    "privapprox_fault_shares_corrupted_total",
    "privapprox_fault_shares_duplicated_total",
    "privapprox_fault_shares_delayed_total",
    "privapprox_fault_forward_timeouts_total",
    "privapprox_fault_proxy_crashes_total",
    "privapprox_fault_lost_mids_total",
    "privapprox_fault_expired_mids_total",
    "privapprox_recovery_retries_total",
    "privapprox_recovery_failovers_total",
    "privapprox_recovery_late_delivered_total",
};

RunSnapshot RunScenario(size_t workers, std::optional<fault::FaultPlan> plan) {
  const bool has_plan = plan.has_value();
  PrivApproxSystem sys(BaseConfig(workers, std::move(plan)));
  for (size_t i = 0; i < kNumClients; ++i) {
    auto& db = sys.client(i).database();
    db.CreateTable("vehicle", {"speed"});
    db.GetTable("vehicle").Insert(500, {localdb::Value(kSpeed)});
  }
  core::ExecutionParams params;
  params.sampling_fraction = 0.6;
  params.randomization = {0.9, 0.6};
  sys.SubmitQuery(SpeedQuery(), params);

  RunSnapshot snapshot;
  // Four epochs, tumbling 10s windows. The final epoch at 20000 exists so
  // shares the degraded link deferred out of epoch 15000 are replayed and
  // window [10000, 20000) closes complete; watermarks advance after the
  // replaying epoch ran.
  for (int64_t now = 5000; now <= 20000; now += 5000) {
    for (size_t i = 0; i < kNumClients; ++i) {
      sys.client(i).database().GetTable("vehicle").Insert(
          now - 100, {localdb::Value(kSpeed)});
    }
    snapshot.epochs.push_back(sys.RunEpoch(now));
    sys.AdvanceWatermark(now);
  }
  sys.Flush();
  snapshot.results = sys.TakeResults();
  for (const std::string& name : sys.broker().TopicNames()) {
    snapshot.topic_names.push_back(name);
    snapshot.topic_metrics.push_back(sys.broker().GetTopic(name).metrics());
  }
  if (has_plan) {
    for (const char* name : kFaultCounterNames) {
      snapshot.fault_counters.emplace_back(
          name, sys.metrics_registry().GetCounter(name, "").Value());
    }
  }
  return snapshot;
}

void ExpectEpochStatsEqual(const EpochStats& a, const EpochStats& b) {
  EXPECT_EQ(a.participants, b.participants);
  EXPECT_EQ(a.shares_sent, b.shares_sent);
  EXPECT_EQ(a.shares_forwarded, b.shares_forwarded);
  EXPECT_EQ(a.shares_consumed, b.shares_consumed);
  EXPECT_EQ(a.malformed_dropped, b.malformed_dropped);
  EXPECT_EQ(a.fault_shares_dropped, b.fault_shares_dropped);
  EXPECT_EQ(a.fault_shares_corrupted, b.fault_shares_corrupted);
  EXPECT_EQ(a.fault_shares_duplicated, b.fault_shares_duplicated);
  EXPECT_EQ(a.fault_shares_delayed, b.fault_shares_delayed);
  EXPECT_EQ(a.fault_forward_timeouts, b.fault_forward_timeouts);
  EXPECT_EQ(a.fault_proxy_crashes, b.fault_proxy_crashes);
  EXPECT_EQ(a.fault_lost_mids, b.fault_lost_mids);
  EXPECT_EQ(a.recovery_retries, b.recovery_retries);
  EXPECT_EQ(a.recovery_failovers, b.recovery_failovers);
  EXPECT_EQ(a.recovery_late_delivered, b.recovery_late_delivered);
}

// Fired windows bit for bit: same windows, same doubles.
void ExpectResultsIdentical(const RunSnapshot& a, const RunSnapshot& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  ASSERT_GT(a.results.size(), 0u);
  for (size_t w = 0; w < a.results.size(); ++w) {
    const auto& ra = a.results[w];
    const auto& rb = b.results[w];
    EXPECT_EQ(ra.window, rb.window);
    EXPECT_EQ(ra.result.participants, rb.result.participants);
    EXPECT_EQ(ra.result.lost_to_faults, rb.result.lost_to_faults);
    ASSERT_EQ(ra.result.buckets.size(), rb.result.buckets.size());
    for (size_t i = 0; i < ra.result.buckets.size(); ++i) {
      EXPECT_EQ(ra.result.buckets[i].estimate.value,
                rb.result.buckets[i].estimate.value);
      EXPECT_EQ(ra.result.buckets[i].estimate.error,
                rb.result.buckets[i].estimate.error);
      EXPECT_EQ(ra.result.buckets[i].randomized_count,
                rb.result.buckets[i].randomized_count);
    }
  }
}

// ----------------------------------------------- invariant 1: bit identity

TEST(FaultTest, ZeroPlanIsBitIdenticalToNoPlan) {
  for (const size_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const RunSnapshot without = RunScenario(workers, std::nullopt);
    // All probabilities default to zero: the injector delivers every share
    // at its first attempt, untouched.
    const RunSnapshot with_zero = RunScenario(workers, fault::FaultPlan{});

    ExpectResultsIdentical(without, with_zero);
    ASSERT_EQ(without.epochs.size(), with_zero.epochs.size());
    for (size_t e = 0; e < without.epochs.size(); ++e) {
      ExpectEpochStatsEqual(without.epochs[e], with_zero.epochs[e]);
    }
    // Identical topic set and identical byte counters in both directions.
    ASSERT_EQ(without.topic_names, with_zero.topic_names);
    for (size_t t = 0; t < without.topic_metrics.size(); ++t) {
      EXPECT_EQ(without.topic_metrics[t].records_in,
                with_zero.topic_metrics[t].records_in)
          << without.topic_names[t];
      EXPECT_EQ(without.topic_metrics[t].bytes_in,
                with_zero.topic_metrics[t].bytes_in)
          << without.topic_names[t];
      EXPECT_EQ(without.topic_metrics[t].records_out,
                with_zero.topic_metrics[t].records_out)
          << without.topic_names[t];
      EXPECT_EQ(without.topic_metrics[t].bytes_out,
                with_zero.topic_metrics[t].bytes_out)
          << without.topic_names[t];
    }
    // Every fault counter stayed at zero.
    for (const auto& [name, value] : with_zero.fault_counters) {
      EXPECT_EQ(value, 0u) << name;
    }
  }
}

// ------------------------------------------------- invariant 2: chaos runs

fault::FaultPlan ChaosPlan(uint64_t seed) {
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.drop_probability = 0.03;
  plan.corrupt_probability = 0.02;
  plan.duplicate_probability = 0.04;
  plan.delay_probability = 0.03;
  plan.timeout_probability = 0.10;
  plan.crash_probability = 0.25;
  plan.crash_point = 0.5;
  plan.retry.max_attempts = 3;
  plan.retry.base_backoff_ms = 10.0;
  return plan;
}

uint64_t CounterValue(const RunSnapshot& snapshot, const std::string& name) {
  for (const auto& [counter, value] : snapshot.fault_counters) {
    if (counter == name) {
      return value;
    }
  }
  ADD_FAILURE() << "no counter " << name;
  return 0;
}

std::vector<uint64_t> ChaosSeeds() {
  if (const char* env = std::getenv("PRIVAPPROX_CHAOS_SEED")) {
    return {std::stoull(env)};
  }
  return {1, 2, 3, 4};
}

void MaybeAppendSummary(uint64_t seed, size_t workers,
                        const RunSnapshot& snapshot) {
  const char* path = std::getenv("PRIVAPPROX_FAULT_SUMMARY");
  if (path == nullptr) {
    return;
  }
  std::ofstream out(path, std::ios::app);
  out << "{\"seed\":" << seed << ",\"workers\":" << workers;
  for (const auto& [name, value] : snapshot.fault_counters) {
    out << ",\"" << name << "\":" << value;
  }
  out << ",\"windows\":" << snapshot.results.size() << "}\n";
}

TEST(FaultTest, ChaosSeedsRecoverWithinWidenedCI) {
  for (const uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const RunSnapshot single = RunScenario(1, ChaosPlan(seed));
    MaybeAppendSummary(seed, 1, single);

    // Worker-count equivalence: fault decisions are (seed, MID, proxy)
    // hashes and every counter is additive, so results, stats, and fault
    // totals agree however the fleet is split.
    for (const size_t workers : {2u, 4u}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      const RunSnapshot parallel = RunScenario(workers, ChaosPlan(seed));
      MaybeAppendSummary(seed, workers, parallel);
      ExpectResultsIdentical(single, parallel);
      ASSERT_EQ(single.epochs.size(), parallel.epochs.size());
      for (size_t e = 0; e < single.epochs.size(); ++e) {
        ExpectEpochStatsEqual(single.epochs[e], parallel.epochs[e]);
      }
      EXPECT_EQ(single.fault_counters, parallel.fault_counters);
    }

    // The plan genuinely exercised injection and recovery.
    EXPECT_GT(CounterValue(single, "privapprox_fault_shares_dropped_total"),
              0u);
    EXPECT_GT(CounterValue(single, "privapprox_fault_shares_corrupted_total"),
              0u);
    EXPECT_GT(CounterValue(single, "privapprox_fault_forward_timeouts_total"),
              0u);
    EXPECT_GT(CounterValue(single, "privapprox_fault_lost_mids_total"), 0u);
    EXPECT_GT(CounterValue(single, "privapprox_recovery_retries_total"), 0u);
    EXPECT_GT(CounterValue(single, "privapprox_recovery_failovers_total"),
              0u);
    EXPECT_GT(
        CounterValue(single, "privapprox_recovery_late_delivered_total"), 0u);
    // Corrupted records surface as malformed drops at the decode stage.
    uint64_t malformed = 0;
    for (const auto& stats : single.epochs) {
      malformed += stats.malformed_dropped;
    }
    EXPECT_GE(malformed,
              CounterValue(single, "privapprox_fault_shares_corrupted_total"));

    // Honest accounting under loss: every client holds kSpeed, so the true
    // population count for the target bucket is kNumClients in every
    // window. The fault-widened interval must cover it.
    ASSERT_GT(single.results.size(), 0u);
    bool any_lost = false;
    for (const auto& windowed : single.results) {
      const auto& bucket = windowed.result.buckets[kTrueBucket];
      EXPECT_LE(std::abs(bucket.estimate.value -
                         static_cast<double>(kNumClients)),
                bucket.estimate.error)
          << "window [" << windowed.window.start_ms << ", "
          << windowed.window.end_ms << ") estimate " << bucket.estimate.value
          << " +/- " << bucket.estimate.error;
      any_lost = any_lost || windowed.result.lost_to_faults > 0;
    }
    EXPECT_TRUE(any_lost);  // CI widening actually engaged somewhere
  }
}

// EpochStats fault/recovery fields are per-epoch deltas of the registry
// counters: summed over the run they must reproduce the cumulative values.
TEST(FaultTest, FaultStatsMatchRegistryTotals) {
  for (const size_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const RunSnapshot run = RunScenario(workers, ChaosPlan(7));
    EpochStats total;
    for (const auto& stats : run.epochs) {
      total.malformed_dropped += stats.malformed_dropped;
      total.fault_shares_dropped += stats.fault_shares_dropped;
      total.fault_shares_corrupted += stats.fault_shares_corrupted;
      total.fault_shares_duplicated += stats.fault_shares_duplicated;
      total.fault_shares_delayed += stats.fault_shares_delayed;
      total.fault_forward_timeouts += stats.fault_forward_timeouts;
      total.fault_proxy_crashes += stats.fault_proxy_crashes;
      total.fault_lost_mids += stats.fault_lost_mids;
      total.recovery_retries += stats.recovery_retries;
      total.recovery_failovers += stats.recovery_failovers;
      total.recovery_late_delivered += stats.recovery_late_delivered;
    }
    EXPECT_EQ(CounterValue(run, "privapprox_fault_shares_dropped_total"),
              total.fault_shares_dropped);
    EXPECT_EQ(CounterValue(run, "privapprox_fault_shares_corrupted_total"),
              total.fault_shares_corrupted);
    EXPECT_EQ(CounterValue(run, "privapprox_fault_shares_duplicated_total"),
              total.fault_shares_duplicated);
    EXPECT_EQ(CounterValue(run, "privapprox_fault_shares_delayed_total"),
              total.fault_shares_delayed);
    EXPECT_EQ(CounterValue(run, "privapprox_fault_forward_timeouts_total"),
              total.fault_forward_timeouts);
    EXPECT_EQ(CounterValue(run, "privapprox_fault_proxy_crashes_total"),
              total.fault_proxy_crashes);
    EXPECT_EQ(CounterValue(run, "privapprox_fault_lost_mids_total"),
              total.fault_lost_mids);
    EXPECT_EQ(CounterValue(run, "privapprox_recovery_retries_total"),
              total.recovery_retries);
    EXPECT_EQ(CounterValue(run, "privapprox_recovery_failovers_total"),
              total.recovery_failovers);
    EXPECT_EQ(CounterValue(run, "privapprox_recovery_late_delivered_total"),
              total.recovery_late_delivered);
  }
}

// ------------------------------------------------------ degradation edges

TEST(FaultTest, AllSharesLostDoesNotDeadlockOrFabricateResults) {
  // drop = 1.0: every share vanishes in transit. The epoch must still
  // complete with every lane batch empty, and the system must report no
  // results rather than garbage.
  fault::FaultPlan plan;
  plan.seed = 13;
  plan.drop_probability = 1.0;
  for (const size_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    PrivApproxSystem sys(BaseConfig(workers, plan));
    for (size_t i = 0; i < kNumClients; ++i) {
      auto& db = sys.client(i).database();
      db.CreateTable("vehicle", {"speed"});
      db.GetTable("vehicle").Insert(500, {localdb::Value(kSpeed)});
    }
    core::ExecutionParams params;
    params.sampling_fraction = 1.0;
    params.randomization = {1.0, 0.5};
    sys.SubmitQuery(SpeedQuery(), params);
    const EpochStats stats = sys.RunEpoch(1000);
    sys.AdvanceWatermark(20000);
    sys.Flush();
    EXPECT_EQ(stats.participants, kNumClients);
    EXPECT_EQ(stats.shares_sent, kNumClients * kNumProxies);
    EXPECT_EQ(stats.fault_shares_dropped, kNumClients * kNumProxies);
    EXPECT_EQ(stats.fault_lost_mids, kNumClients);  // each MID counted once
    EXPECT_EQ(stats.shares_forwarded, 0u);
    EXPECT_EQ(stats.shares_consumed, 0u);
    EXPECT_TRUE(sys.results().empty());
    EXPECT_EQ(sys.aggregator().pending_join_groups(), 0u);
  }
}

TEST(FaultTest, RejectsInvalidPlans) {
  {
    fault::FaultPlan plan;
    plan.drop_probability = 0.7;
    plan.corrupt_probability = 0.4;  // fates sum > 1
    EXPECT_THROW(PrivApproxSystem(
                     BaseConfig(4, plan)),
                 std::invalid_argument);
  }
  {
    fault::FaultPlan plan;
    plan.timeout_probability = 1.5;
    EXPECT_THROW(PrivApproxSystem(
                     BaseConfig(4, plan)),
                 std::invalid_argument);
  }
  {
    fault::FaultPlan plan;
    plan.retry.max_attempts = 0;
    EXPECT_THROW(PrivApproxSystem(
                     BaseConfig(4, plan)),
                 std::invalid_argument);
  }
}

// -------------------------------------------------------- multi-query chaos

constexpr double kTemperature = 55.0;  // every client -> bucket 5
constexpr size_t kTempTrueBucket = 5;

core::Query TempQuery() {
  return core::QueryBuilder()
      .WithId(2)
      .WithSql("SELECT temperature FROM vehicle")
      .WithAnswerFormat(core::AnswerFormat::UniformNumeric(0, 100, 10, true))
      .WithFrequencyMs(5000)
      .WithWindowMs(10000)
      .WithSlideMs(10000)
      .Build();
}

core::ExecutionParams SpeedChaosParams() {
  core::ExecutionParams params;
  params.sampling_fraction = 0.6;
  params.randomization = {0.9, 0.6};
  return params;
}

core::ExecutionParams TempChaosParams() {
  core::ExecutionParams params;
  params.sampling_fraction = 0.8;
  params.randomization = {0.85, 0.5};
  return params;
}

// Same schedule as RunScenario but the queries are submitted right after
// construction and every client carries both columns, so the speed-only,
// temp-only, and joint runs see identical local databases.
RunSnapshot RunMultiChaosScenario(size_t workers,
                                  std::optional<fault::FaultPlan> plan,
                                  bool with_speed, bool with_temp) {
  PrivApproxSystem sys(BaseConfig(workers, std::move(plan)));
  if (with_speed) {
    sys.SubmitQuery(SpeedQuery(), SpeedChaosParams());
  }
  if (with_temp) {
    sys.SubmitQuery(TempQuery(), TempChaosParams());
  }
  for (size_t i = 0; i < kNumClients; ++i) {
    auto& db = sys.client(i).database();
    db.CreateTable("vehicle", {"speed", "temperature"});
    db.GetTable("vehicle").Insert(
        500, {localdb::Value(kSpeed), localdb::Value(kTemperature)});
  }
  RunSnapshot snapshot;
  for (int64_t now = 5000; now <= 20000; now += 5000) {
    for (size_t i = 0; i < kNumClients; ++i) {
      sys.client(i).database().GetTable("vehicle").Insert(
          now - 100,
          {localdb::Value(kSpeed), localdb::Value(kTemperature)});
    }
    snapshot.epochs.push_back(sys.RunEpoch(now));
    sys.AdvanceWatermark(now);
  }
  sys.Flush();
  snapshot.results = sys.TakeResults();
  for (const char* name : kFaultCounterNames) {
    snapshot.fault_counters.emplace_back(
        name, sys.metrics_registry().GetCounter(name, "").Value());
  }
  return snapshot;
}

std::vector<aggregator::WindowedResult> ResultsForQuery(
    const RunSnapshot& snapshot, uint64_t qid) {
  std::vector<aggregator::WindowedResult> out;
  for (const auto& windowed : snapshot.results) {
    if (windowed.query_id == qid) {
      out.push_back(windowed);
    }
  }
  return out;
}

void ExpectWindowedResultsIdentical(
    const std::vector<aggregator::WindowedResult>& a,
    const std::vector<aggregator::WindowedResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 0u);
  for (size_t w = 0; w < a.size(); ++w) {
    EXPECT_EQ(a[w].window, b[w].window);
    EXPECT_EQ(a[w].result.participants, b[w].result.participants);
    EXPECT_EQ(a[w].result.lost_to_faults, b[w].result.lost_to_faults);
    ASSERT_EQ(a[w].result.buckets.size(), b[w].result.buckets.size());
    for (size_t i = 0; i < a[w].result.buckets.size(); ++i) {
      EXPECT_EQ(a[w].result.buckets[i].estimate.value,
                b[w].result.buckets[i].estimate.value);
      EXPECT_EQ(a[w].result.buckets[i].estimate.error,
                b[w].result.buckets[i].estimate.error);
      EXPECT_EQ(a[w].result.buckets[i].randomized_count,
                b[w].result.buckets[i].randomized_count);
    }
  }
}

TEST(MultiQueryFaultTest, TwoQueryChaosMatchesIsolatedRunsPerQuery) {
  // Fault fates are pure (plan seed, salt, QID, MID, proxy) hashes and
  // proxy crashes are (epoch, proxy) draws, so the chaos a query suffers
  // must not depend on which other queries share the fleet. The joint
  // 2-query run must agree at 1, 2 and 4 workers AND, per query, be bit
  // identical — estimates, widened errors, lost_to_faults — to the run
  // where that query has the system to itself. This also pins that CI
  // widening is driven by each lane's own losses, never pooled across
  // queries.
  for (const uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const RunSnapshot joint =
        RunMultiChaosScenario(1, ChaosPlan(seed), true, true);
    for (const size_t workers : {2u, 4u}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      const RunSnapshot parallel =
          RunMultiChaosScenario(workers, ChaosPlan(seed), true, true);
      ExpectResultsIdentical(joint, parallel);
      ASSERT_EQ(joint.epochs.size(), parallel.epochs.size());
      for (size_t e = 0; e < joint.epochs.size(); ++e) {
        ExpectEpochStatsEqual(joint.epochs[e], parallel.epochs[e]);
      }
      EXPECT_EQ(joint.fault_counters, parallel.fault_counters);
    }

    const RunSnapshot solo_speed =
        RunMultiChaosScenario(4, ChaosPlan(seed), true, false);
    const RunSnapshot solo_temp =
        RunMultiChaosScenario(4, ChaosPlan(seed), false, true);
    ExpectWindowedResultsIdentical(ResultsForQuery(joint, 1),
                                   solo_speed.results);
    ExpectWindowedResultsIdentical(ResultsForQuery(joint, 2),
                                   solo_temp.results);

    // Lost MIDs are keyed (QID, MID): the joint ledger is the disjoint
    // union of the solo ledgers.
    EXPECT_EQ(CounterValue(joint, "privapprox_fault_lost_mids_total"),
              CounterValue(solo_speed, "privapprox_fault_lost_mids_total") +
                  CounterValue(solo_temp, "privapprox_fault_lost_mids_total"));

    // Both lanes genuinely lost shares and both stayed honest: the true
    // per-bucket population is covered by each query's own widened CI.
    for (const auto& [qid, bucket_index] :
         std::vector<std::pair<uint64_t, size_t>>{{1, kTrueBucket},
                                                  {2, kTempTrueBucket}}) {
      SCOPED_TRACE("qid=" + std::to_string(qid));
      const auto windows = ResultsForQuery(joint, qid);
      ASSERT_GT(windows.size(), 0u);
      bool any_lost = false;
      for (const auto& windowed : windows) {
        const auto& bucket = windowed.result.buckets[bucket_index];
        EXPECT_LE(std::abs(bucket.estimate.value -
                           static_cast<double>(kNumClients)),
                  bucket.estimate.error)
            << "window [" << windowed.window.start_ms << ", "
            << windowed.window.end_ms << ") estimate "
            << bucket.estimate.value << " +/- " << bucket.estimate.error;
        any_lost = any_lost || windowed.result.lost_to_faults > 0;
      }
      EXPECT_TRUE(any_lost);
    }
  }
}

// ------------------------------------------------------- estimator widening

TEST(FaultTest, EstimatorWidensErrorBySqrtOfIntendedOverEffective) {
  core::ExecutionParams params;
  params.sampling_fraction = 0.6;
  params.randomization = {0.9, 0.6};
  const core::ErrorEstimator estimator(params, /*population=*/1000, 0.99);
  Histogram counts(4);
  counts.SetCount(0, 40.0);
  counts.SetCount(1, 25.0);
  counts.SetCount(2, 20.0);
  counts.SetCount(3, 15.0);
  const core::QueryResult base = estimator.Estimate(counts, 100);
  const core::QueryResult widened = estimator.Estimate(counts, 100, 25);
  EXPECT_EQ(base.lost_to_faults, 0u);
  EXPECT_EQ(widened.lost_to_faults, 25u);
  const double factor = std::sqrt(125.0 / 100.0);
  ASSERT_EQ(widened.buckets.size(), base.buckets.size());
  for (size_t i = 0; i < base.buckets.size(); ++i) {
    // Point estimates untouched; only the margin scales.
    EXPECT_EQ(widened.buckets[i].estimate.value,
              base.buckets[i].estimate.value);
    EXPECT_DOUBLE_EQ(widened.buckets[i].estimate.error,
                     base.buckets[i].estimate.error * factor);
  }
}

}  // namespace
}  // namespace privapprox::system
