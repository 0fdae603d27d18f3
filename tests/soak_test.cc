// Soak gate for bounded memory over unbounded time. A small fleet runs
// hundreds of epochs, advancing the watermark after each one; once one join
// timeout of warm-up has passed, every lane topic must hold at most one
// epoch's records in memory and its slab bytes must stay within a fixed
// band. Memory that grows with the epoch count fails here long before it
// would take a long-lived deployment down.
//
// The in-process system runs fault-free and under a seeded fault plan
// (drop, corrupt, duplicate and delay). The loopback-TCP case reads the
// proxy daemons' lane topics through their /metrics, the way an operator
// would: the inbound lane, which the proxy releases as it forwards, and the
// outbound lane, which the memory-only aggregator daemon releases over the
// wire after each drain. Each case also pins the metrics registry: the
// number of samples an exposition renders after warm-up must not grow with
// the epoch count (per-epoch registration returns existing instruments).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "aggregator/aggregator.h"
#include "broker/topic.h"
#include "core/query.h"
#include "deploy/aggregator_daemon.h"
#include "deploy/fleet_driver.h"
#include "deploy/proxy_daemon.h"
#include "fault/fault.h"
#include "localdb/database.h"
#include "system/system.h"

namespace privapprox {
namespace {

constexpr size_t kClients = 300;
constexpr size_t kProxies = 2;
constexpr int64_t kEpochs = 300;
constexpr int64_t kPeriodMs = 1000;

// One join timeout of epochs: by then the join has reached its steady
// state of remembered MIDs and expired groups.
int64_t WarmupEpochs() {
  return aggregator::AggregatorConfig().join_timeout_ms / kPeriodMs;
}

int64_t EpochNow(int64_t epoch) { return (epoch + 1) * kPeriodMs; }

core::Query SpeedQuery() {
  return core::QueryBuilder()
      .WithId(1)
      .WithSql("SELECT speed FROM vehicle")
      .WithAnswerFormat(core::AnswerFormat::UniformNumeric(0, 100, 10, true))
      .WithFrequencyMs(kPeriodMs)
      .WithWindowMs(kPeriodMs)
      .WithSlideMs(kPeriodMs)
      .Build();
}

core::ExecutionParams Params() {
  core::ExecutionParams params;
  params.sampling_fraction = 0.8;
  params.randomization = {0.9, 0.6};
  return params;
}

// One fresh reading per client per epoch; older rows are evicted so the
// client databases stay bounded too.
void Feed(localdb::Database& db, size_t client, int64_t epoch) {
  if (!db.HasTable("vehicle")) {
    db.CreateTable("vehicle", {"speed"});
  }
  const int64_t now = EpochNow(epoch);
  db.GetTable("vehicle").Insert(
      now - kPeriodMs / 2,
      {localdb::Value(static_cast<double>((client * 7 + epoch) % 100))});
  db.EvictBefore(now - kPeriodMs);
}

// Samples (non-comment lines) in a text exposition.
size_t SampleCount(const std::string& text) {
  std::istringstream in(text);
  size_t samples = 0;
  for (std::string line; std::getline(in, line);) {
    samples += !line.empty() && line[0] != '#' ? 1 : 0;
  }
  return samples;
}

// Every client answers at most once per epoch, so no lane topic may hold
// more records than clients once the epoch's consumers are done with them.
constexpr uint64_t kOneEpochOfRecords = kClients;

// One topic's readings after warm-up: retained records are capped per
// reading, and the allocated slab bytes stay within one slab chunk.
class TopicBands {
 public:
  void Observe(const std::string& topic, uint64_t retained_records,
               uint64_t allocated_bytes) {
    EXPECT_LE(retained_records, kOneEpochOfRecords) << topic;
    auto [it, inserted] =
        bands_.try_emplace(topic, Band{allocated_bytes, allocated_bytes});
    it->second.lo = std::min(it->second.lo, allocated_bytes);
    it->second.hi = std::max(it->second.hi, allocated_bytes);
  }

  void ExpectFlat(size_t expected_topics) const {
    EXPECT_EQ(bands_.size(), expected_topics);
    for (const auto& [topic, band] : bands_) {
      EXPECT_LE(band.hi - band.lo, broker::Topic::kSlabChunkBytes)
          << topic << " slab bytes moved from " << band.lo << " to "
          << band.hi;
    }
  }

 private:
  struct Band {
    uint64_t lo = 0;
    uint64_t hi = 0;
  };
  std::map<std::string, Band> bands_;
};

void SoakInProcess(const std::optional<fault::FaultPlan>& fault) {
  system::SystemConfig config;
  config.num_clients = kClients;
  config.num_proxies = kProxies;
  config.seed = 11;
  config.pipeline.num_worker_threads = 2;
  config.fault = fault;
  system::PrivApproxSystem sys(config);
  sys.SubmitQuery(SpeedQuery(), Params());

  const int64_t warmup = WarmupEpochs();
  TopicBands bands;
  size_t lane_topics = 0;
  size_t results = 0;
  size_t warm_samples = 0;
  for (int64_t e = 0; e < kEpochs; ++e) {
    for (size_t i = 0; i < kClients; ++i) {
      Feed(sys.client(i).database(), i, e);
    }
    sys.RunEpoch(EpochNow(e));
    // One epoch of lag lets shares the fault plan deferred reach their
    // window before it fires.
    sys.AdvanceWatermark(EpochNow(e) - kPeriodMs);
    results += sys.TakeResults().size();
    if (e < warmup) {
      continue;
    }
    if (e == warmup) {
      warm_samples = SampleCount(sys.MetricsText());
    }
    lane_topics = 0;
    for (const std::string& name : sys.broker().TopicNames()) {
      if (name.find(".q1.") == std::string::npos) {
        continue;
      }
      ++lane_topics;
      const broker::SlabStats stats =
          sys.broker().GetTopic(name).slab_stats();
      bands.Observe(name, stats.retained_records, stats.allocated_bytes);
    }
  }
  // The fleet kept answering: epoch e's window fires two epochs later.
  EXPECT_EQ(results, static_cast<size_t>(kEpochs - 2));
  EXPECT_GE(lane_topics, 2 * kProxies);
  bands.ExpectFlat(lane_topics);
  EXPECT_GT(warm_samples, 0u);
  EXPECT_EQ(SampleCount(sys.MetricsText()), warm_samples);
}

TEST(SoakTest, LaneTopicsStayBounded) { SoakInProcess(std::nullopt); }

TEST(SoakTest, FaultyLaneTopicsStayBounded) {
  fault::FaultPlan plan;
  plan.seed = 5;
  plan.drop_probability = 0.01;
  plan.corrupt_probability = 0.005;
  plan.duplicate_probability = 0.01;
  plan.delay_probability = 0.01;
  SoakInProcess(plan);
}

// The value of `family{topic="<topic>"}` in a text exposition; -1 when the
// sample is absent.
double TopicGauge(const std::string& text, const std::string& family,
                  const std::string& topic) {
  const std::string key = family + "{topic=\"" + topic + "\"} ";
  const size_t at = text.find(key);
  return at == std::string::npos ? -1.0
                                 : std::stod(text.substr(at + key.size()));
}

TEST(SoakTest, TcpProxydLaneInTopicsStayBounded) {
  std::vector<std::unique_ptr<deploy::ProxyDaemon>> proxyds;
  std::vector<deploy::Endpoint> endpoints;
  for (size_t j = 0; j < kProxies; ++j) {
    deploy::ProxyDaemonConfig config;
    config.proxy_index = j;
    proxyds.push_back(std::make_unique<deploy::ProxyDaemon>(config));
    proxyds.back()->Start();
    endpoints.push_back(deploy::Endpoint{"127.0.0.1", proxyds.back()->port()});
  }
  deploy::AggregatorDaemonConfig agg_config;
  agg_config.proxies = endpoints;
  agg_config.population = kClients;
  deploy::AggregatorDaemon aggregatord(agg_config);
  aggregatord.Start();

  deploy::FleetDriverConfig fleet_config;
  fleet_config.num_clients = kClients;
  fleet_config.seed = 11;
  fleet_config.proxies = endpoints;
  fleet_config.aggregator = deploy::Endpoint{"127.0.0.1", aggregatord.port()};
  deploy::FleetDriver fleet(fleet_config);
  fleet.SubmitQuery(SpeedQuery(), Params());

  const int64_t warmup = WarmupEpochs();
  TopicBands bands;
  size_t results = 0;
  size_t warm_samples = 0;
  for (int64_t e = 0; e < kEpochs; ++e) {
    for (size_t i = 0; i < kClients; ++i) {
      Feed(fleet.client(i).database(), i, e);
    }
    const deploy::FleetEpochStats stats = fleet.RunEpoch(EpochNow(e));
    ASSERT_EQ(stats.shares_consumed, stats.shares_sent);
    fleet.AdvanceWatermark(EpochNow(e) - kPeriodMs);
    results += fleet.TakeResults().size();
    if (e < warmup) {
      continue;
    }
    if (e == warmup) {
      warm_samples = SampleCount(fleet.AggregatorMetricsText());
    }
    for (size_t j = 0; j < kProxies; ++j) {
      const std::string text = fleet.ProxyMetricsText(j);
      for (const char* lane : {".q1.in", ".q1.out"}) {
        const std::string topic = "proxy" + std::to_string(j) + lane;
        const double retained =
            TopicGauge(text, "privapprox_topic_retained_records", topic);
        const double allocated =
            TopicGauge(text, "privapprox_topic_slab_allocated_bytes", topic);
        ASSERT_GE(retained, 0.0) << "no retained-records gauge for " << topic;
        ASSERT_GE(allocated, 0.0) << "no slab gauge for " << topic;
        bands.Observe(topic, static_cast<uint64_t>(retained),
                      static_cast<uint64_t>(allocated));
      }
    }
  }
  EXPECT_EQ(results, static_cast<size_t>(kEpochs - 2));
  bands.ExpectFlat(2 * kProxies);
  // aggregatord carries the aggregator's per-lane families.
  EXPECT_GT(warm_samples, 0u);
  EXPECT_EQ(SampleCount(fleet.AggregatorMetricsText()), warm_samples);
  aggregatord.Stop();
  for (auto& proxyd : proxyds) {
    proxyd->Stop();
  }
}

}  // namespace
}  // namespace privapprox
