// Determinism of the parallel epoch pipeline (system/system.cc): RunEpoch
// with num_worker_threads=1 and num_worker_threads=N must produce identical
// WindowedResults and byte-identical broker topic contents. The parallel
// path splits client answering into one contiguous range per worker but
// every proxy receives the ranges in client-id order, so every downstream
// byte and double matches the sequential run exactly. Run this suite under
// -DPRIVAPPROX_SANITIZE=thread to check the pool synchronization.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/budget_manager.h"
#include "core/privacy.h"
#include "system/system.h"

namespace privapprox::system {
namespace {

core::Query SpeedQuery() {
  return core::QueryBuilder()
      .WithId(1)
      .WithSql("SELECT speed FROM vehicle")
      .WithAnswerFormat(core::AnswerFormat::UniformNumeric(0, 100, 10, true))
      .WithFrequencyMs(5000)
      .WithWindowMs(10000)
      .WithSlideMs(5000)
      .Build();
}

// Per-topic counters plus every fired window, captured after a fixed epoch
// schedule — the full observable output of one run.
struct RunSnapshot {
  std::vector<EpochStats> epochs;
  std::vector<aggregator::WindowedResult> results;
  std::vector<broker::TopicMetrics> topic_metrics;
  std::vector<std::string> topic_names;
};

RunSnapshot RunScenario(size_t num_worker_threads) {
  SystemConfig config;
  config.num_clients = 400;
  config.num_proxies = 3;
  config.seed = 99;
  config.pipeline.num_worker_threads = num_worker_threads;
  PrivApproxSystem sys(config);
  for (size_t i = 0; i < config.num_clients; ++i) {
    auto& db = sys.client(i).database();
    db.CreateTable("vehicle", {"speed"});
    // Spread clients across buckets; refresh rows per epoch below.
    db.GetTable("vehicle").Insert(
        500, {localdb::Value(static_cast<double>((i * 13) % 100))});
  }
  core::ExecutionParams params;
  params.sampling_fraction = 0.6;
  params.randomization = {0.9, 0.6};
  sys.SubmitQuery(SpeedQuery(), params);

  RunSnapshot snapshot;
  for (int64_t now = 5000; now <= 15000; now += 5000) {
    for (size_t i = 0; i < config.num_clients; ++i) {
      sys.client(i).database().GetTable("vehicle").Insert(
          now - 100, {localdb::Value(static_cast<double>((i * 13) % 100))});
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
  return snapshot;
}

// Asserts two runs are observably identical: per-epoch stats, fired windows
// bit for bit, and per-topic record/byte counters in both directions.
void ExpectSnapshotsIdentical(const RunSnapshot& sequential,
                              const RunSnapshot& parallel) {
  ASSERT_EQ(parallel.epochs.size(), sequential.epochs.size());
  for (size_t e = 0; e < sequential.epochs.size(); ++e) {
    EXPECT_EQ(parallel.epochs[e].participants,
              sequential.epochs[e].participants);
    EXPECT_EQ(parallel.epochs[e].shares_sent, sequential.epochs[e].shares_sent);
    EXPECT_EQ(parallel.epochs[e].shares_forwarded,
              sequential.epochs[e].shares_forwarded);
    EXPECT_EQ(parallel.epochs[e].shares_consumed,
              sequential.epochs[e].shares_consumed);
    EXPECT_EQ(parallel.epochs[e].malformed_dropped,
              sequential.epochs[e].malformed_dropped);
  }

  // Fired windows: identical order, windows, and bit-for-bit doubles.
  ASSERT_EQ(parallel.results.size(), sequential.results.size());
  ASSERT_GT(sequential.results.size(), 0u);
  for (size_t w = 0; w < sequential.results.size(); ++w) {
    const auto& a = sequential.results[w];
    const auto& b = parallel.results[w];
    EXPECT_EQ(b.window, a.window);
    EXPECT_EQ(b.result.participants, a.result.participants);
    ASSERT_EQ(b.result.buckets.size(), a.result.buckets.size());
    for (size_t i = 0; i < a.result.buckets.size(); ++i) {
      EXPECT_EQ(b.result.buckets[i].estimate.value,
                a.result.buckets[i].estimate.value);
      EXPECT_EQ(b.result.buckets[i].estimate.error,
                a.result.buckets[i].estimate.error);
      EXPECT_EQ(b.result.buckets[i].randomized_count,
                a.result.buckets[i].randomized_count);
    }
  }

  // Broker topics: identical byte and record counts in both directions.
  ASSERT_EQ(parallel.topic_names, sequential.topic_names);
  for (size_t t = 0; t < sequential.topic_metrics.size(); ++t) {
    EXPECT_EQ(parallel.topic_metrics[t].records_in,
              sequential.topic_metrics[t].records_in)
        << sequential.topic_names[t];
    EXPECT_EQ(parallel.topic_metrics[t].bytes_in,
              sequential.topic_metrics[t].bytes_in)
        << sequential.topic_names[t];
    EXPECT_EQ(parallel.topic_metrics[t].records_out,
              sequential.topic_metrics[t].records_out)
        << sequential.topic_names[t];
    EXPECT_EQ(parallel.topic_metrics[t].bytes_out,
              sequential.topic_metrics[t].bytes_out)
        << sequential.topic_names[t];
  }
}

TEST(ParallelEpochTest, ParallelMatchesSequentialExactly) {
  const RunSnapshot sequential = RunScenario(1);
  for (size_t workers : {2u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExpectSnapshotsIdentical(sequential, RunScenario(workers));
  }
}

TEST(ParallelEpochTest, WorkerThreadKnobIsHonored) {
  SystemConfig config;
  config.num_clients = 2;
  config.pipeline.num_worker_threads = 3;
  PrivApproxSystem sys(config);
  EXPECT_EQ(sys.num_worker_threads(), 3u);
}

TEST(ParallelEpochTest, DefaultUsesHardwareConcurrency) {
  SystemConfig config;
  config.num_clients = 2;
  PrivApproxSystem sys(config);
  EXPECT_GE(sys.num_worker_threads(), 1u);
}

// EpochStats is defined as the per-epoch delta of the registry's core
// pipeline counters; summing the deltas over a run must reproduce the
// cumulative registry values exactly, at any worker count.
void ExpectStatsMatchRegistry(size_t num_worker_threads) {
  SystemConfig config;
  config.num_clients = 150;
  config.num_proxies = 2;
  config.seed = 31;
  config.pipeline.num_worker_threads = num_worker_threads;
  PrivApproxSystem sys(config);
  for (size_t i = 0; i < config.num_clients; ++i) {
    auto& db = sys.client(i).database();
    db.CreateTable("vehicle", {"speed"});
    db.GetTable("vehicle").Insert(
        500, {localdb::Value(static_cast<double>((i * 13) % 100))});
  }
  core::ExecutionParams params;
  params.sampling_fraction = 0.6;
  params.randomization = {0.9, 0.6};
  sys.SubmitQuery(SpeedQuery(), params);

  EpochStats total;
  size_t epochs = 0;
  for (int64_t now = 5000; now <= 15000; now += 5000) {
    const EpochStats stats = sys.RunEpoch(now);
    total.participants += stats.participants;
    total.shares_sent += stats.shares_sent;
    total.shares_forwarded += stats.shares_forwarded;
    total.shares_consumed += stats.shares_consumed;
    total.malformed_dropped += stats.malformed_dropped;
    ++epochs;
  }

  auto& reg = sys.metrics_registry();
  EXPECT_EQ(reg.GetCounter("privapprox_epochs_total", "").Value(), epochs);
  EXPECT_EQ(reg.GetCounter("privapprox_participants_total", "").Value(),
            total.participants);
  EXPECT_EQ(reg.GetCounter("privapprox_shares_sent_total", "").Value(),
            total.shares_sent);
  EXPECT_EQ(reg.GetCounter("privapprox_shares_forwarded_total", "").Value(),
            total.shares_forwarded);
  EXPECT_EQ(reg.GetCounter("privapprox_shares_consumed_total", "").Value(),
            total.shares_consumed);
  EXPECT_EQ(reg.GetCounter("privapprox_malformed_dropped_total", "").Value(),
            total.malformed_dropped);
  EXPECT_GT(total.shares_sent, 0u);
}

TEST(ParallelEpochTest, EpochStatsMatchesRegistry) {
  for (size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExpectStatsMatchRegistry(workers);
  }
}

// ------------------------------------------------------ range-split edges

// A scratch data_dir, wiped on scope exit.
class TempDir {
 public:
  TempDir() {
    static std::atomic<int> counter{0};
    std::random_device rd;
    path_ = std::filesystem::temp_directory_path() /
            ("privapprox_parallel_epoch_test_" + std::to_string(::getpid()) +
             "_" + std::to_string(counter++) + "_" + std::to_string(rd()));
    std::filesystem::remove_all(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

fault::FaultPlan SplitChaosPlan() {
  fault::FaultPlan plan;
  plan.seed = 5;
  plan.drop_probability = 0.1;
  plan.corrupt_probability = 0.1;
  plan.duplicate_probability = 0.1;
  plan.delay_probability = 0.1;
  plan.timeout_probability = 0.2;
  plan.crash_probability = 0.3;
  return plan;
}

// Every record of every lane topic, in partition and offset order, as
// "<key>/<timestamp>/<payload bytes>" strings.
using LaneContents = std::map<std::string, std::vector<std::string>>;

// A 7-client fleet at `workers` workers, with every topic spilled to a
// durable data_dir: the epoch releases consumed records from memory, the
// logs keep them, and a broker recovered from the logs after the run
// yields every lane record ever appended.
struct SplitRun {
  std::vector<EpochStats> epochs;
  std::vector<aggregator::WindowedResult> results;
  LaneContents lanes;
};

SplitRun RunSplitScenario(size_t workers,
                          std::optional<fault::FaultPlan> plan) {
  const TempDir dir;
  SplitRun run;
  {
    SystemConfig config;
    config.num_clients = 7;
    config.num_proxies = 3;
    config.seed = 17;
    config.pipeline.num_worker_threads = workers;
    config.broker.data_dir = dir.str();
    core::ExecutionParams params;
    params.sampling_fraction = 0.6;
    params.randomization = {0.9, 0.6};
    config.fault = std::move(plan);
    PrivApproxSystem sys(config);
    sys.SubmitQuery(SpeedQuery(), params);
    for (size_t i = 0; i < config.num_clients; ++i) {
      sys.client(i).database().CreateTable("vehicle", {"speed"});
    }
    for (int64_t now = 5000; now <= 20000; now += 5000) {
      for (size_t i = 0; i < config.num_clients; ++i) {
        sys.client(i).database().GetTable("vehicle").Insert(
            now - 100, {localdb::Value(static_cast<double>((i * 13) % 100))});
      }
      run.epochs.push_back(sys.RunEpoch(now));
      sys.AdvanceWatermark(now);
    }
    sys.Flush();
    run.results = sys.TakeResults();
  }
  broker::Broker recovered;
  recovered.EnableDurability({dir.str(), {}});
  recovered.RecoverTopics();
  for (const std::string& name : recovered.TopicNames()) {
    if (!name.ends_with(".in") && !name.ends_with(".out")) {
      continue;
    }
    const broker::Topic& topic = recovered.GetTopic(name);
    std::vector<std::string>& records = run.lanes[name];
    for (size_t p = 0; p < topic.num_partitions(); ++p) {
      std::vector<broker::RecordView> views;
      topic.ReadViews(p, 0, SIZE_MAX, views);
      for (const broker::RecordView& record : views) {
        records.push_back(std::to_string(record.key) + "/" +
                          std::to_string(record.timestamp_ms) + "/" +
                          std::string(record.bytes().begin(),
                                      record.bytes().end()));
      }
    }
  }
  return run;
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

// Fewer clients than workers and uneven splits: 7 clients over 1, 2, 3, 4
// and 8 workers give ranges of every size from 0 to 7 clients. Every lane
// topic's bytes, every result double and every EpochStats field must equal
// the 1-worker run, with and without a chaos plan.
TEST(ParallelEpochTest, RangeSplitEdgesMatchOneWorker) {
  for (const bool chaos : {false, true}) {
    SCOPED_TRACE(chaos ? "chaos" : "fault-free");
    const auto plan = chaos ? std::optional(SplitChaosPlan()) : std::nullopt;
    const SplitRun oracle = RunSplitScenario(1, plan);
    ASSERT_FALSE(oracle.lanes.empty());
    ASSERT_GT(oracle.results.size(), 0u);
    if (chaos) {
      // The plan fails shares over and defers them, so the failovers'
      // place in each lane and the next-epoch replay are part of what the
      // splits must agree on.
      uint64_t failovers = 0;
      uint64_t late = 0;
      for (const EpochStats& stats : oracle.epochs) {
        failovers += stats.recovery_failovers;
        late += stats.recovery_late_delivered;
      }
      EXPECT_GT(failovers, 0u);
      EXPECT_GT(late, 0u);
    }
    for (const size_t workers : {2u, 3u, 4u, 8u}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      const SplitRun run = RunSplitScenario(workers, plan);
      EXPECT_EQ(run.lanes, oracle.lanes);
      ASSERT_EQ(run.epochs.size(), oracle.epochs.size());
      for (size_t e = 0; e < oracle.epochs.size(); ++e) {
        ExpectEpochStatsEqual(run.epochs[e], oracle.epochs[e]);
      }
      ASSERT_EQ(run.results.size(), oracle.results.size());
      for (size_t w = 0; w < oracle.results.size(); ++w) {
        const auto& a = oracle.results[w].result;
        const auto& b = run.results[w].result;
        EXPECT_EQ(run.results[w].window, oracle.results[w].window);
        EXPECT_EQ(b.participants, a.participants);
        EXPECT_EQ(b.lost_to_faults, a.lost_to_faults);
        ASSERT_EQ(b.buckets.size(), a.buckets.size());
        for (size_t i = 0; i < a.buckets.size(); ++i) {
          EXPECT_EQ(b.buckets[i].estimate.value, a.buckets[i].estimate.value);
          EXPECT_EQ(b.buckets[i].estimate.error, a.buckets[i].estimate.error);
          EXPECT_EQ(b.buckets[i].randomized_count,
                    a.buckets[i].randomized_count);
        }
      }
    }
  }
}

// ---------------------------------------------------- multi-query runtime

core::Query TempQuery() {
  return core::QueryBuilder()
      .WithId(2)
      .WithSql("SELECT temperature FROM vehicle")
      .WithAnswerFormat(core::AnswerFormat::UniformNumeric(0, 100, 5, true))
      .WithFrequencyMs(5000)
      .WithWindowMs(10000)
      .WithSlideMs(5000)
      .Build();
}

core::ExecutionParams SpeedParams() {
  core::ExecutionParams params;
  params.sampling_fraction = 0.6;
  params.randomization = {0.9, 0.6};
  return params;
}

core::ExecutionParams TempParams() {
  core::ExecutionParams params;
  params.sampling_fraction = 0.8;
  params.randomization = {0.85, 0.5};
  return params;
}

struct SubmittedQuery {
  core::Query query;
  core::ExecutionParams params;
};

// Runs the standard 3-epoch schedule with an arbitrary query set, submitted
// in order right after construction, and returns the full observable
// output.
RunSnapshot RunMultiScenario(const std::vector<SubmittedQuery>& queries,
                             size_t num_worker_threads) {
  SystemConfig config;
  config.num_clients = 400;
  config.num_proxies = 3;
  config.seed = 99;
  config.pipeline.num_worker_threads = num_worker_threads;
  PrivApproxSystem sys(config);
  for (const SubmittedQuery& spec : queries) {
    sys.SubmitQuery(spec.query, spec.params);
  }
  for (size_t i = 0; i < config.num_clients; ++i) {
    auto& db = sys.client(i).database();
    db.CreateTable("vehicle", {"speed", "temperature"});
    db.GetTable("vehicle").Insert(
        500, {localdb::Value(static_cast<double>((i * 13) % 100)),
              localdb::Value(static_cast<double>((i * 7) % 100))});
  }
  RunSnapshot snapshot;
  for (int64_t now = 5000; now <= 15000; now += 5000) {
    for (size_t i = 0; i < config.num_clients; ++i) {
      sys.client(i).database().GetTable("vehicle").Insert(
          now - 100, {localdb::Value(static_cast<double>((i * 13) % 100)),
                      localdb::Value(static_cast<double>((i * 7) % 100))});
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
  return snapshot;
}

// Anchor invariant: a one-query run whose query arrives before any client
// has a table is observably identical — results, per-epoch stats, every
// broker topic counter — to the classic path, which submits it after.
TEST(MultiQueryTest, OneQueryConfigListMatchesLegacySubmitExactly) {
  const RunSnapshot legacy = RunScenario(2);
  // Same scenario, but the query arrives right after construction, before
  // any client has a table.
  SystemConfig config;
  config.num_clients = 400;
  config.num_proxies = 3;
  config.seed = 99;
  config.pipeline.num_worker_threads = 2;
  PrivApproxSystem sys(config);
  sys.SubmitQuery(SpeedQuery(), SpeedParams());
  for (size_t i = 0; i < config.num_clients; ++i) {
    auto& db = sys.client(i).database();
    db.CreateTable("vehicle", {"speed"});
    db.GetTable("vehicle").Insert(
        500, {localdb::Value(static_cast<double>((i * 13) % 100))});
  }
  RunSnapshot multi;
  for (int64_t now = 5000; now <= 15000; now += 5000) {
    for (size_t i = 0; i < config.num_clients; ++i) {
      sys.client(i).database().GetTable("vehicle").Insert(
          now - 100, {localdb::Value(static_cast<double>((i * 13) % 100))});
    }
    multi.epochs.push_back(sys.RunEpoch(now));
    sys.AdvanceWatermark(now);
  }
  sys.Flush();
  multi.results = sys.TakeResults();
  for (const std::string& name : sys.broker().TopicNames()) {
    multi.topic_names.push_back(name);
    multi.topic_metrics.push_back(sys.broker().GetTopic(name).metrics());
  }
  ExpectSnapshotsIdentical(legacy, multi);
}

// With two concurrent queries the epoch must still be bit-identical to the
// one-worker run at every worker count.
TEST(MultiQueryTest, TwoQueryEpochMatchesOneWorkerAtEveryWorkerCount) {
  const std::vector<SubmittedQuery> queries = {
      {SpeedQuery(), SpeedParams()}, {TempQuery(), TempParams()}};
  const RunSnapshot sequential = RunMultiScenario(queries, 1);
  for (const size_t workers : {2u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExpectSnapshotsIdentical(sequential, RunMultiScenario(queries, workers));
  }
}

// Query isolation: each query's results in a joint 2-query run are
// bit-identical to a run where it is the only query registered — the
// shared sampling draw plus per-query randomization streams guarantee no
// cross-query interference. Lane topic traffic must match too.
TEST(MultiQueryTest, EachQueryMatchesItsIsolatedRun) {
  const RunSnapshot joint = RunMultiScenario(
      {{SpeedQuery(), SpeedParams()}, {TempQuery(), TempParams()}}, 2);
  const std::vector<SubmittedQuery> solos[] = {
      {{SpeedQuery(), SpeedParams()}}, {{TempQuery(), TempParams()}}};
  for (const auto& solo_spec : solos) {
    const uint64_t qid = solo_spec[0].query.query_id;
    SCOPED_TRACE("query=" + std::to_string(qid));
    const RunSnapshot solo = RunMultiScenario(solo_spec, 2);

    // Results for this query, in order, bit for bit.
    std::vector<const aggregator::WindowedResult*> joint_q;
    for (const auto& r : joint.results) {
      if (r.query_id == qid) {
        joint_q.push_back(&r);
      }
    }
    ASSERT_EQ(joint_q.size(), solo.results.size());
    ASSERT_GT(solo.results.size(), 0u);
    for (size_t w = 0; w < solo.results.size(); ++w) {
      const auto& a = solo.results[w];
      const auto& b = *joint_q[w];
      EXPECT_EQ(b.window, a.window);
      EXPECT_EQ(b.result.participants, a.result.participants);
      EXPECT_EQ(b.result.sampling_fraction, a.result.sampling_fraction);
      ASSERT_EQ(b.result.buckets.size(), a.result.buckets.size());
      for (size_t i = 0; i < a.result.buckets.size(); ++i) {
        EXPECT_EQ(b.result.buckets[i].estimate.value,
                  a.result.buckets[i].estimate.value);
        EXPECT_EQ(b.result.buckets[i].estimate.error,
                  a.result.buckets[i].estimate.error);
        EXPECT_EQ(b.result.buckets[i].randomized_count,
                  a.result.buckets[i].randomized_count);
      }
    }

    // This query's lane topics carried identical traffic in both runs.
    const std::string suffix_in = ".q" + std::to_string(qid) + ".in";
    const std::string suffix_out = ".q" + std::to_string(qid) + ".out";
    size_t lanes_checked = 0;
    for (size_t t = 0; t < joint.topic_names.size(); ++t) {
      const std::string& name = joint.topic_names[t];
      if (!name.ends_with(suffix_in) && !name.ends_with(suffix_out)) {
        continue;
      }
      const auto it = std::find(solo.topic_names.begin(),
                                solo.topic_names.end(), name);
      ASSERT_NE(it, solo.topic_names.end()) << name;
      const auto& solo_m =
          solo.topic_metrics[it - solo.topic_names.begin()];
      EXPECT_EQ(joint.topic_metrics[t].records_in, solo_m.records_in)
          << name;
      EXPECT_EQ(joint.topic_metrics[t].bytes_in, solo_m.bytes_in) << name;
      ++lanes_checked;
    }
    EXPECT_EQ(lanes_checked, 6u);  // 3 proxies x {in, out}
  }
}

// Admission control at the system surface: a duplicate QID is rejected, and
// UpdateParams must name a registered query.
TEST(MultiQueryTest, DuplicateSubmitAndAmbiguousShimAreRejected) {
  SystemConfig config;
  config.num_clients = 4;
  PrivApproxSystem sys(config);
  sys.SubmitQuery(SpeedQuery(), SpeedParams());
  EXPECT_THROW(sys.SubmitQuery(SpeedQuery(), SpeedParams()),
               std::invalid_argument);
  sys.SubmitQuery(TempQuery(), TempParams());
  EXPECT_EQ(sys.num_queries(), 2u);
  EXPECT_THROW(sys.UpdateParams(99, SpeedParams()), std::logic_error);
  EXPECT_NO_THROW(sys.UpdateParams(1, SpeedParams()));
}

// The privacy-budget manager at the system surface: under a finite fleet
// cap the second query is admitted with a reduced sampling fraction, that
// reduced s is what every one of its QueryResults reports, and a third
// query that cannot fit even at the sampling floor is refused while the
// admitted queries keep producing windows.
TEST(MultiQueryTest, BudgetCapDownsamplesAndSurfacesReducedSampling) {
  const double eps_speed = core::EpsilonZk(SpeedParams().randomization,
                                           SpeedParams().sampling_fraction);
  SystemConfig config;
  config.num_clients = 200;
  config.num_proxies = 2;
  config.seed = 7;
  config.budget.max_epsilon_zk = eps_speed + 0.4;
  PrivApproxSystem sys(config);
  for (size_t i = 0; i < config.num_clients; ++i) {
    auto& db = sys.client(i).database();
    db.CreateTable("vehicle", {"speed", "temperature"});
    db.GetTable("vehicle").Insert(
        500, {localdb::Value(static_cast<double>((i * 13) % 100)),
              localdb::Value(static_cast<double>((i * 7) % 100))});
  }

  // Query 1 fits as requested; query 2 is down-sampled onto the 0.4 of
  // zero-knowledge budget that remains.
  const core::ExecutionParams speed_admitted =
      sys.SubmitQuery(SpeedQuery(), SpeedParams());
  EXPECT_EQ(speed_admitted.sampling_fraction,
            SpeedParams().sampling_fraction);
  const core::ExecutionParams temp_admitted =
      sys.SubmitQuery(TempQuery(), TempParams());
  EXPECT_LT(temp_admitted.sampling_fraction, TempParams().sampling_fraction);
  EXPECT_EQ(temp_admitted.randomization.p, TempParams().randomization.p);
  EXPECT_EQ(temp_admitted.randomization.q, TempParams().randomization.q);
  EXPECT_NEAR(core::EpsilonZk(temp_admitted.randomization,
                              temp_admitted.sampling_fraction),
              0.4, 1e-9);

  // The fleet budget is exhausted: a third query is refused outright, and
  // the refusal leaves the ledger untouched.
  const core::Query third = core::QueryBuilder()
                                .WithId(3)
                                .WithSql("SELECT speed FROM vehicle")
                                .WithAnswerFormat(
                                    core::AnswerFormat::UniformNumeric(
                                        0, 100, 10, true))
                                .WithFrequencyMs(5000)
                                .WithWindowMs(10000)
                                .WithSlideMs(10000)
                                .Build();
  EXPECT_THROW(sys.SubmitQuery(third, SpeedParams()),
               core::BudgetExceededError);
  EXPECT_EQ(sys.num_queries(), 2u);
  EXPECT_NEAR(sys.budget_manager().spent(), config.budget.max_epsilon_zk,
              1e-9);

  // Both admitted queries keep running, and query 2's fired windows report
  // the reduced sampling fraction the estimator actually de-biased with.
  for (int64_t now = 5000; now <= 15000; now += 5000) {
    for (size_t i = 0; i < config.num_clients; ++i) {
      sys.client(i).database().GetTable("vehicle").Insert(
          now - 100, {localdb::Value(static_cast<double>((i * 13) % 100)),
                      localdb::Value(static_cast<double>((i * 7) % 100))});
    }
    sys.RunEpoch(now);
    sys.AdvanceWatermark(now);
  }
  sys.Flush();
  size_t speed_windows = 0;
  size_t temp_windows = 0;
  for (const auto& windowed : sys.TakeResults()) {
    if (windowed.query_id == 1) {
      ++speed_windows;
      EXPECT_EQ(windowed.result.sampling_fraction,
                speed_admitted.sampling_fraction);
    } else {
      ASSERT_EQ(windowed.query_id, 2u);
      ++temp_windows;
      EXPECT_EQ(windowed.result.sampling_fraction,
                temp_admitted.sampling_fraction);
    }
  }
  EXPECT_GT(speed_windows, 0u);
  EXPECT_GT(temp_windows, 0u);
}

}  // namespace
}  // namespace privapprox::system
