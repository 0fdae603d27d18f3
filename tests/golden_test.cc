// Golden pins across versions: FNV-1a 64 digests of everything a seeded
// client fleet and a seeded system emit, compared against constants.
//
// Every other bit-identity test compares two configurations of one build
// (N workers vs 1, TCP vs in-process, SIMD vs scalar), so a change that
// altered every client's bytes the same way would pass them all. These
// digests were captured once and must not move: a change that alters a
// share byte, a sampling decision, an estimate bit or an epoch counter
// fails here. The workload mirrors perfbench's inproc_3q_faults: three
// queries of 11, 81 and 11 buckets, the last one filtered by
// `WHERE speed >= 50`, under its fault plan; the failover pin adds forward
// timeouts and proxy crashes to it, so shares fail over. The historical pin
// replays examples/historical_batch instead: one query's batch results over
// the stored answers, which pins the answer tap and the second sampling
// round. The system and historical digests include error bounds, whose
// Student-t and normal quantiles go through libm (log, exp, erfc, lgamma);
// a libm that rounds one of those differently moves those three digests
// only.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "common/arena.h"
#include "core/query.h"
#include "core/query_wire.h"
#include "fault/fault.h"
#include "metrics/metrics.h"
#include "proxy/proxy.h"
#include "system/client_fleet.h"
#include "system/system.h"
#include "transport/inproc_bus.h"
#include "workload/taxi.h"

namespace privapprox::system {
namespace {

constexpr int64_t kPeriodMs = 1000;
constexpr int64_t kWindowEpochs = 4;
constexpr size_t kClients = 600;
constexpr size_t kProxies = 2;
constexpr uint64_t kSeed = 7;

class Fnv1a64 {
 public:
  void Bytes(const uint8_t* data, size_t len) {
    for (size_t i = 0; i < len; ++i) {
      hash_ ^= data[i];
      hash_ *= 0x100000001B3ULL;
    }
  }
  void U64(uint64_t v) {
    uint8_t bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    Bytes(bytes, sizeof(bytes));
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  uint64_t digest() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

core::Query GoldenQuery(uint64_t qid, const std::string& sql,
                        size_t buckets) {
  return core::QueryBuilder()
      .WithId(qid)
      .WithSql(sql)
      .WithAnswerFormat(
          core::AnswerFormat::UniformNumeric(0, 100, buckets, true))
      .WithFrequencyMs(kPeriodMs)
      .WithWindowMs(kWindowEpochs * kPeriodMs)
      .WithSlideMs(kPeriodMs)
      .Build();
}

std::vector<core::Query> GoldenQueries() {
  return {GoldenQuery(1, "SELECT speed FROM vehicle", 10),
          GoldenQuery(2, "SELECT load FROM vehicle", 80),
          GoldenQuery(3, "SELECT load FROM vehicle WHERE speed >= 50", 10)};
}

core::ExecutionParams TableThreeParams() {
  core::ExecutionParams params;
  params.sampling_fraction = 0.6;
  params.randomization = {0.9, 0.6};
  return params;
}

// perfbench's inproc_3q_faults plan.
fault::FaultPlan GoldenFaultPlan() {
  fault::FaultPlan plan;
  plan.seed = kSeed;
  plan.drop_probability = 0.01;
  plan.corrupt_probability = 0.005;
  plan.duplicate_probability = 0.01;
  plan.delay_probability = 0.01;
  return plan;
}

// One reading per client per epoch, spread over every bucket; rows older
// than the window are evicted, as a client's retention would.
void Feed(localdb::Database& db, size_t client, int64_t epoch) {
  if (!db.HasTable("vehicle")) {
    db.CreateTable("vehicle", {"speed", "load"});
  }
  const uint64_t mix = (client * 0x9E3779B97F4A7C15ULL) ^
                       (static_cast<uint64_t>(epoch) * 0xBF58476D1CE4E5B9ULL);
  db.GetTable("vehicle").Insert(
      epoch * kPeriodMs - 1,
      {localdb::Value(static_cast<int64_t>((mix >> 20) % 100)),
       localdb::Value(static_cast<double>((mix >> 40) % 100))});
  db.EvictBefore((epoch - kWindowEpochs) * kPeriodMs);
}

void HashRecords(Fnv1a64& fnv, const std::vector<broker::ProduceView>& recs) {
  fnv.U64(recs.size());
  for (const broker::ProduceView& rec : recs) {
    fnv.U64(rec.key);
    fnv.U64(rec.payload.size());
    fnv.Bytes(rec.payload.data(), rec.payload.size());
    fnv.I64(rec.timestamp_ms);
  }
}

// A fleet answered directly for 3 epochs: every lane's delivered and
// failed-over records in order, and the per-query participant counts. With
// faults the plan also crashes proxies and times forwards out, so shares
// fail over to the failover lists.
uint64_t FleetDigest(bool with_faults, uint64_t* failover_records) {
  metrics::Registry registry;
  broker::Broker broker;
  transport::InProcessBus bus(broker);
  ClientFleet fleet(kClients, kProxies, kSeed, /*invert_answers=*/false,
                    registry);
  for (size_t i = 0; i < kClients; ++i) {
    Feed(fleet.client(i).database(), i, 0);
  }
  std::vector<uint64_t> qids;
  for (const core::Query& query : GoldenQueries()) {
    const std::vector<uint8_t> bytes = core::SerializeAnnouncement(
        core::QueryAnnouncement{query, TableThreeParams()});
    for (size_t j = 0; j < kProxies; ++j) {
      const std::string topic = "golden.q" + std::to_string(query.query_id) +
                                ".p" + std::to_string(j);
      bus.EnsureTopic(topic, 1);
      const broker::ProduceView record{query.query_id, bytes, 0};
      bus.Produce(topic, {&record, 1});
      fleet.DeliverAnnouncement(j, bus, topic);
    }
    qids.push_back(query.query_id);
  }
  std::optional<fault::FaultInjector> injector;
  if (with_faults) {
    fault::FaultPlan plan = GoldenFaultPlan();
    plan.timeout_probability = 0.05;
    plan.crash_probability = 0.3;
    injector.emplace(plan, registry);
  }
  Fnv1a64 fnv;
  EpochArena arena;
  for (int64_t epoch = 1; epoch <= 3; ++epoch) {
    for (size_t i = 0; i < kClients; ++i) {
      Feed(fleet.client(i).database(), i, epoch);
    }
    const AnsweredRange range =
        fleet.Answer(0, kClients, epoch * kPeriodMs, qids, arena,
                     injector ? &*injector : nullptr,
                     static_cast<uint64_t>(epoch));
    for (const std::vector<LaneRecords>& lanes : range.lanes) {
      for (const LaneRecords& lane : lanes) {
        HashRecords(fnv, lane.records);
        HashRecords(fnv, lane.failover);
        *failover_records += lane.failover.size();
      }
    }
    for (const uint64_t participants : range.participants) {
      fnv.U64(participants);
    }
    arena.Reset();
  }
  return fnv.digest();
}

TEST(GoldenPinTest, FleetLanesWithoutFaults) {
  uint64_t failover = 0;
  EXPECT_EQ(FleetDigest(/*with_faults=*/false, &failover),
            0xEF2E5FB38D580C3CULL);
  EXPECT_EQ(failover, 0u);
}

TEST(GoldenPinTest, FleetLanesUnderFaults) {
  uint64_t failover = 0;
  EXPECT_EQ(FleetDigest(/*with_faults=*/true, &failover),
            0x17DB085582F5869DULL);
  EXPECT_GT(failover, 0u);
}

void HashStats(Fnv1a64& fnv, const EpochStats& s) {
  for (const uint64_t field :
       {uint64_t{s.participants}, s.shares_sent, s.shares_forwarded,
        s.shares_consumed, s.malformed_dropped, s.fault_shares_dropped,
        s.fault_shares_corrupted, s.fault_shares_duplicated,
        s.fault_shares_delayed, s.fault_forward_timeouts,
        s.fault_proxy_crashes, s.fault_lost_mids, s.recovery_retries,
        s.recovery_failovers, s.recovery_late_delivered}) {
    fnv.U64(field);
  }
}

// A 1-worker system over the same queries under perfbench's fault plan,
// 8 epochs with sliding windows, the second query re-tuned at epoch 4:
// every result's QID, window, participants and bucket estimate bits, every
// EpochStats field, and the client -> proxy byte total.
TEST(GoldenPinTest, SystemResultsUnderFaults) {
  SystemConfig config;
  config.num_clients = kClients;
  config.num_proxies = kProxies;
  config.seed = kSeed;
  config.pipeline.num_worker_threads = 1;
  config.fault = GoldenFaultPlan();
  PrivApproxSystem sys(config);
  for (size_t i = 0; i < kClients; ++i) {
    Feed(sys.client(i).database(), i, 0);
  }
  for (const core::Query& query : GoldenQueries()) {
    sys.SubmitQuery(query, TableThreeParams());
  }
  Fnv1a64 fnv;
  for (int64_t epoch = 1; epoch <= 8; ++epoch) {
    if (epoch == 4) {
      core::ExecutionParams retuned;
      retuned.sampling_fraction = 0.8;
      retuned.randomization = {0.85, 0.5};
      sys.UpdateParams(2, retuned);
    }
    for (size_t i = 0; i < kClients; ++i) {
      Feed(sys.client(i).database(), i, epoch);
    }
    HashStats(fnv, sys.RunEpoch(epoch * kPeriodMs));
    sys.AdvanceWatermark((epoch - 1) * kPeriodMs);
  }
  sys.Flush();
  const std::vector<aggregator::WindowedResult> results = sys.TakeResults();
  ASSERT_GT(results.size(), 0u);
  for (const aggregator::WindowedResult& r : results) {
    fnv.U64(r.query_id);
    fnv.I64(r.window.start_ms);
    fnv.I64(r.window.end_ms);
    fnv.U64(r.result.participants);
    for (const core::BucketEstimate& bucket : r.result.buckets) {
      fnv.F64(bucket.estimate.value);
      fnv.F64(bucket.estimate.error);
    }
  }
  fnv.U64(sys.ClientToProxyBytes());
  EXPECT_EQ(fnv.digest(), 0xE876CCBB77AF2AC0ULL);
}

// The same system under a plan that also times forwards out and crashes
// proxies, so shares fail over, with the answer tap on and no re-tune:
// every EpochStats field, every result (with its fault losses and
// randomized counts), the client -> proxy bytes, what each lane out-topic
// took in, and every historical record in order.
TEST(GoldenPinTest, SystemResultsUnderFailover) {
  SystemConfig config;
  config.num_clients = kClients;
  config.num_proxies = kProxies;
  config.seed = kSeed;
  config.pipeline.num_worker_threads = 1;
  config.historical.enabled = true;
  fault::FaultPlan plan = GoldenFaultPlan();
  plan.timeout_probability = 0.05;
  plan.crash_probability = 0.3;
  config.fault = plan;
  PrivApproxSystem sys(config);
  for (size_t i = 0; i < kClients; ++i) {
    Feed(sys.client(i).database(), i, 0);
  }
  std::vector<uint64_t> qids;
  for (const core::Query& query : GoldenQueries()) {
    sys.SubmitQuery(query, TableThreeParams());
    qids.push_back(query.query_id);
  }
  Fnv1a64 fnv;
  uint64_t failovers = 0;
  for (int64_t epoch = 1; epoch <= 8; ++epoch) {
    for (size_t i = 0; i < kClients; ++i) {
      Feed(sys.client(i).database(), i, epoch);
    }
    const EpochStats stats = sys.RunEpoch(epoch * kPeriodMs);
    HashStats(fnv, stats);
    failovers += stats.recovery_failovers;
    sys.AdvanceWatermark((epoch - 1) * kPeriodMs);
  }
  EXPECT_GT(failovers, 0u);
  sys.Flush();
  const std::vector<aggregator::WindowedResult> results = sys.TakeResults();
  ASSERT_GT(results.size(), 0u);
  for (const aggregator::WindowedResult& r : results) {
    fnv.U64(r.query_id);
    fnv.I64(r.window.start_ms);
    fnv.I64(r.window.end_ms);
    fnv.U64(r.result.participants);
    fnv.U64(r.result.lost_to_faults);
    for (const core::BucketEstimate& bucket : r.result.buckets) {
      fnv.F64(bucket.estimate.value);
      fnv.F64(bucket.estimate.error);
      fnv.F64(bucket.randomized_count);
    }
  }
  fnv.U64(sys.ClientToProxyBytes());
  for (size_t j = 0; j < kProxies; ++j) {
    for (const uint64_t qid : qids) {
      const broker::TopicMetrics& lane =
          sys.broker().GetTopic(proxy::LaneOutTopic(j, qid)).metrics();
      fnv.U64(lane.records_in);
      fnv.U64(lane.bytes_in);
    }
  }
  const broker::Topic& historical = sys.broker().GetTopic("historical");
  std::vector<broker::RecordView> views;
  for (uint64_t offset = 0; offset < historical.EndOffset(0);
       offset = views.back().offset + 1) {
    views.clear();
    historical.ReadViews(0, offset, 4096, views);
    for (const broker::RecordView& record : views) {
      fnv.U64(record.key);
      fnv.I64(record.timestamp_ms);
      fnv.U64(record.payload_len);
      fnv.Bytes(record.payload, record.payload_len);
    }
  }
  EXPECT_EQ(fnv.digest(), 0xDB85BB2B02B44A22ULL);
}

// examples/historical_batch's run: 1,500 taxi clients streaming 8 epochs
// at one worker with the answer tap on, then its four batch queries — the
// whole run at aggregator budgets 1.0, 0.3 and 0.1, and the first half at
// 1.0. Every field of every result: counts, estimates, error bounds and the
// raw randomized counts, so a changed second-round draw, a skipped or
// extra stored answer, or a changed de-biasing moves the digest.
TEST(GoldenPinTest, HistoricalBatchResults) {
  constexpr size_t kTaxiClients = 1500;
  constexpr int64_t kSlideMs = 10 * 1000;
  constexpr int kEpochs = 8;
  SystemConfig config;
  config.num_clients = kTaxiClients;
  config.seed = 33;
  config.historical.enabled = true;
  config.pipeline.num_worker_threads = 1;
  PrivApproxSystem sys(config);
  workload::TaxiGenerator generator(44);
  const core::Query query =
      workload::TaxiGenerator::MakeDistanceQuery(5, kSlideMs, kSlideMs);
  core::ExecutionParams params;
  params.sampling_fraction = 0.8;
  params.randomization = {0.9, 0.3};
  sys.SubmitQuery(query, params);
  for (int epoch = 1; epoch <= kEpochs; ++epoch) {
    const int64_t now = epoch * kSlideMs;
    for (size_t i = 0; i < kTaxiClients; ++i) {
      generator.PopulateClient(sys.client(i).database(), 1, now - kSlideMs,
                               now);
    }
    sys.RunEpoch(now);
    sys.AdvanceWatermark(now);
  }
  sys.Flush();
  const int64_t end = (kEpochs + 1) * kSlideMs;
  const int64_t half = kEpochs / 2 * kSlideMs + kSlideMs;
  const std::pair<int64_t, double> cases[] = {
      {end, 1.0}, {end, 0.3}, {end, 0.1}, {half, 1.0}};
  Fnv1a64 fnv;
  for (const auto& [to, budget] : cases) {
    const core::QueryResult result = sys.RunHistorical(
        query.query_id, 0, to, aggregator::BatchQueryBudget{budget});
    fnv.U64(result.participants);
    fnv.U64(result.population);
    fnv.U64(result.lost_to_faults);
    fnv.F64(result.confidence);
    fnv.F64(result.sampling_fraction);
    for (const core::BucketEstimate& bucket : result.buckets) {
      fnv.F64(bucket.estimate.value);
      fnv.F64(bucket.estimate.error);
      fnv.F64(bucket.estimate.confidence);
      fnv.U64(bucket.estimate.sample_size);
      fnv.F64(bucket.randomized_count);
    }
  }
  EXPECT_EQ(fnv.digest(), 0x6E9FF49815D9986AULL);
}

}  // namespace
}  // namespace privapprox::system
