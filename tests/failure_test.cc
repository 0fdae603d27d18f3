// Failure-injection tests: lost shares, duplicated records, out-of-order
// delivery, proxy outage, and a crash/recovery cycle of the durable
// historical store — the system must degrade gracefully (fewer answers,
// wider error bars) and never produce corrupt results.

#include <gtest/gtest.h>

#include <filesystem>

#include "aggregator/aggregator.h"
#include "answer_one.h"
#include "client/client.h"
#include "proxy/proxy.h"
#include "system/system.h"
#include "transport/inproc_bus.h"

#include <unistd.h>

namespace privapprox {
namespace {

core::Query MakeQuery(int64_t window_ms = 10000) {
  return core::QueryBuilder()
      .WithId(1)
      .WithSql("SELECT speed FROM vehicle")
      .WithAnswerFormat(core::AnswerFormat::UniformNumeric(0, 100, 10, true))
      .WithFrequencyMs(1000)
      .WithWindowMs(window_ms)
      .WithSlideMs(10000)
      .Build();
}

core::ExecutionParams ExactParams() {
  core::ExecutionParams params;
  params.sampling_fraction = 1.0;
  params.randomization = {1.0, 0.5};
  return params;
}

client::Client MakeClient(uint64_t id, double speed) {
  client::Client c(client::ClientConfig{id, 2, 123});
  c.database().CreateTable("vehicle", {"speed"})
      .Insert(500, {localdb::Value(speed)});
  return c;
}

// Produces one record out of band onto a system's bus, as a faulty or
// hostile client would.
void ProduceRaw(system::PrivApproxSystem& sys, const std::string& topic,
                uint64_t key, const std::vector<uint8_t>& payload,
                int64_t timestamp_ms) {
  const broker::ProduceView view{key, payload, timestamp_ms};
  sys.bus().Produce(topic, std::span<const broker::ProduceView>(&view, 1));
}

// Two proxies and an aggregator over one query's lanes.
struct Harness {
  explicit Harness(size_t population, core::Query q = MakeQuery())
      : query(std::move(q)),
        proxy0(proxy::ProxyConfig{0, 2}, bus),
        proxy1(proxy::ProxyConfig{1, 2}, bus) {
    aggregator::AggregatorConfig config;
    config.num_proxies = 2;
    config.population = population;
    agg = std::make_unique<aggregator::Aggregator>(
        config, bus, [this](const aggregator::WindowedResult& r) {
          results.push_back(r);
        });
    aggregator::QueryLaneOptions lane;
    for (proxy::Proxy* proxy : {&proxy0, &proxy1}) {
      proxy->EnsureLane(query.query_id);
      lane.source_topics.push_back(proxy->lane_out_topic(query.query_id));
    }
    agg->RegisterQuery(query, ExactParams(), std::move(lane));
  }

  // Enqueues one client share on `proxy`'s lane.
  void Send(proxy::Proxy& proxy, const crypto::MessageShare& share,
            int64_t timestamp_ms) {
    const std::vector<uint8_t> encoded = proxy::Proxy::EncodeShare(share);
    const broker::ProduceView view{share.message_id, encoded, timestamp_ms};
    proxy.Receive(query.query_id,
                  std::span<const broker::ProduceView>(&view, 1));
  }

  broker::Broker broker;
  transport::InProcessBus bus{broker};
  core::Query query;
  proxy::Proxy proxy0;
  proxy::Proxy proxy1;
  std::unique_ptr<aggregator::Aggregator> agg;
  std::vector<aggregator::WindowedResult> results;
};

// ----------------------------------------------------------- share loss

TEST(FailureTest, RandomShareLossDegradesGracefully) {
  // 20% of shares to proxy 1 are lost in transit. Those messages never
  // join; the rest produce an exact result over the survivors.
  const size_t population = 500;
  Harness harness(population);
  Xoshiro256 rng(1);
  size_t delivered = 0;
  for (size_t i = 0; i < population; ++i) {
    client::Client c = MakeClient(i, 25.0);
    c.Subscribe(harness.query, ExactParams());
    const auto shares = AnswerOne(c, 5000);
    harness.Send(harness.proxy0, shares[0], 5000);
    if (rng.NextBernoulli(0.8)) {
      harness.Send(harness.proxy1, shares[1], 5000);
      ++delivered;
    }
  }
  harness.proxy0.ForwardLanes();
  harness.proxy1.ForwardLanes();
  harness.agg->Drain();
  harness.agg->Flush();
  ASSERT_EQ(harness.results.size(), 1u);
  const auto& result = harness.results[0].result;
  EXPECT_EQ(result.participants, delivered);
  EXPECT_EQ(harness.agg->join_stats().joined, delivered);
  // Survivors are all in bucket 2; the estimate scales them back to the
  // population (the estimator treats missing answers as unsampled).
  EXPECT_NEAR(result.buckets[2].estimate.value,
              static_cast<double>(population), 1.0);
  // The lost messages linger as partial join groups until eviction.
  EXPECT_EQ(harness.agg->pending_join_groups(), population - delivered);
}

TEST(FailureTest, TotalProxyOutageYieldsNoResultsNotGarbage) {
  const size_t population = 50;
  Harness harness(population);
  for (size_t i = 0; i < population; ++i) {
    client::Client c = MakeClient(i, 25.0);
    c.Subscribe(harness.query, ExactParams());
    const auto shares = AnswerOne(c, 5000);
    harness.Send(harness.proxy0, shares[0], 5000);
    // Proxy 1 is down: nothing arrives there.
  }
  harness.proxy0.ForwardLanes();
  harness.agg->Drain();
  harness.agg->AdvanceWatermark(1000000);  // evicts all partial groups
  EXPECT_TRUE(harness.results.empty());
  EXPECT_EQ(harness.agg->join_stats().joined, 0u);
  EXPECT_EQ(harness.agg->join_stats().evicted_partial, population);
}

TEST(FailureTest, DuplicatedRecordsInTransitAreDropped) {
  // A flaky broker redelivers every record twice; the MID join must not
  // double-count answers.
  const size_t population = 100;
  Harness harness(population);
  for (size_t i = 0; i < population; ++i) {
    client::Client c = MakeClient(i, 25.0);
    c.Subscribe(harness.query, ExactParams());
    const auto shares = AnswerOne(c, 5000);
    for (int copy = 0; copy < 2; ++copy) {
      harness.Send(harness.proxy0, shares[0], 5000);
      harness.Send(harness.proxy1, shares[1], 5000);
    }
  }
  harness.proxy0.ForwardLanes();
  harness.proxy1.ForwardLanes();
  harness.agg->Drain();
  harness.agg->Flush();
  ASSERT_EQ(harness.results.size(), 1u);
  EXPECT_EQ(harness.results[0].result.participants, population);
  EXPECT_NEAR(harness.results[0].result.buckets[2].estimate.value,
              static_cast<double>(population), 1e-9);
  EXPECT_GT(harness.agg->join_stats().duplicates_dropped, 0u);
}

TEST(FailureTest, MalformedRecordsSurfaceInEpochStats) {
  // A corrupted share arrives at proxy 0 out-of-band: too short to decode.
  // The proxy forwards it blindly; the aggregator must drop it, count it,
  // and keep every well-formed answer — at every worker count.
  for (const size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    system::SystemConfig config;
    config.num_clients = 20;
    config.num_proxies = 2;
    config.seed = 7;
    config.pipeline.num_worker_threads = workers;
    system::PrivApproxSystem sys(config);
    for (size_t i = 0; i < config.num_clients; ++i) {
      auto& db = sys.client(i).database();
      db.CreateTable("vehicle", {"speed"});
      db.GetTable("vehicle").Insert(500, {localdb::Value(25.0)});
    }
    sys.SubmitQuery(MakeQuery(), ExactParams());
    // Shares travel on per-query lane topics; the garbage lands on query
    // 1's lane at proxy 0 so the forward path carries it.
    ProduceRaw(sys, "proxy0.q1.in", /*key=*/12345,
               std::vector<uint8_t>{0xBA, 0xD0, 0x01}, 900);
    const system::EpochStats stats = sys.RunEpoch(1000);
    EXPECT_EQ(stats.malformed_dropped, 1u);
    EXPECT_EQ(stats.participants, config.num_clients);
    // Consumed = every well-formed share plus the injected garbage record.
    EXPECT_EQ(stats.shares_consumed,
              config.num_clients * config.num_proxies + 1);
    // EpochStats is defined as a per-epoch delta of the registry counters —
    // after one epoch, delta and cumulative value must agree exactly.
    metrics::Registry& reg = sys.metrics_registry();
    EXPECT_EQ(stats.malformed_dropped,
              reg.GetCounter("privapprox_malformed_dropped_total", "").Value());
    EXPECT_EQ(stats.shares_consumed,
              reg.GetCounter("privapprox_shares_consumed_total", "").Value());
    EXPECT_EQ(stats.participants,
              reg.GetCounter("privapprox_participants_total", "").Value());
    // A clean follow-up epoch reports zero drops: the stat is per-epoch.
    for (size_t i = 0; i < config.num_clients; ++i) {
      sys.client(i).database().GetTable("vehicle").Insert(
          1500, {localdb::Value(25.0)});
    }
    EXPECT_EQ(sys.RunEpoch(2000).malformed_dropped, 0u);
    // Cumulative counter keeps the first epoch's drop.
    EXPECT_EQ(
        reg.GetCounter("privapprox_malformed_dropped_total", "").Value(), 1u);
  }
}

TEST(FailureTest, ShareLengthMismatchIsMalformedNotFatal) {
  // One client splits its answer into shares of different lengths: 14
  // bytes to proxy 0, 13 to proxy 1. The join drops that MID as malformed
  // and keeps feeding, so every honest answer of the batch still counts —
  // at every worker count — and a replay of the MID is a duplicate.
  constexpr uint64_t kMid = 0xBADC0FFEEULL;
  const auto record = [](size_t payload_len) {
    std::vector<uint8_t> bytes(8 + payload_len, 0x5A);
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<uint8_t>(kMid >> (8 * i));
    }
    return bytes;
  };
  for (const size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    system::SystemConfig config;
    config.num_clients = 20;
    config.num_proxies = 2;
    config.seed = 7;
    config.pipeline.num_worker_threads = workers;
    system::PrivApproxSystem sys(config);
    for (size_t i = 0; i < config.num_clients; ++i) {
      auto& db = sys.client(i).database();
      db.CreateTable("vehicle", {"speed"});
      db.GetTable("vehicle").Insert(500, {localdb::Value(25.0)});
    }
    sys.SubmitQuery(MakeQuery(), ExactParams());
    ProduceRaw(sys, "proxy0.q1.in", kMid, record(14), 900);
    ProduceRaw(sys, "proxy1.q1.in", kMid, record(13), 900);
    const system::EpochStats stats = sys.RunEpoch(1000);
    EXPECT_EQ(stats.malformed_dropped, 1u);
    EXPECT_EQ(stats.participants, config.num_clients);
    EXPECT_EQ(stats.shares_consumed,
              config.num_clients * config.num_proxies + 2);
    EXPECT_EQ(sys.aggregator().join_stats().malformed_dropped, 1u);
    EXPECT_EQ(sys.aggregator().join_stats().joined, config.num_clients);

    for (size_t i = 0; i < config.num_clients; ++i) {
      sys.client(i).database().GetTable("vehicle").Insert(
          1500, {localdb::Value(25.0)});
    }
    ProduceRaw(sys, "proxy0.q1.in", kMid, record(14), 1900);
    ProduceRaw(sys, "proxy1.q1.in", kMid, record(13), 1900);
    EXPECT_EQ(sys.RunEpoch(2000).malformed_dropped, 0u);
    EXPECT_EQ(sys.aggregator().join_stats().duplicates_dropped, 2u);

    sys.Flush();
    const std::vector<aggregator::WindowedResult> results = sys.TakeResults();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].result.participants, 2 * config.num_clients);
  }
}

// ------------------------------------------------------ out-of-order time

TEST(FailureTest, OutOfOrderArrivalJoinsItsWindow) {
  // Answers from two windows arrive interleaved; a watermark past the first
  // window's end fires it with both of its answers, and none of the later
  // window's.
  const size_t population = 30;
  Harness harness(population);
  auto send_at = [&](uint64_t id, int64_t ts) {
    client::Client c = MakeClient(id, 25.0);
    c.Subscribe(harness.query, ExactParams());
    const auto shares = AnswerOne(c, ts);
    harness.Send(harness.proxy0, shares[0], ts);
    harness.Send(harness.proxy1, shares[1], ts);
  };
  send_at(0, 9000);
  send_at(1, 12000);  // later epoch arrives before epoch-1 stragglers
  send_at(2, 9500);   // a straggler of the first window
  harness.proxy0.ForwardLanes();
  harness.proxy1.ForwardLanes();
  harness.agg->Drain();
  harness.agg->AdvanceWatermark(11000);
  // The first window fired with both of its answers despite the
  // interleaving.
  ASSERT_EQ(harness.results.size(), 1u);
  EXPECT_EQ(harness.results[0].window.start_ms, 0);
  EXPECT_EQ(harness.results[0].result.participants, 2u);
}

TEST(FailureTest, OutOfRangeEventTimesAreMalformedNotWindows) {
  // A record's timestamp is whatever its producer wrote, and the joiner
  // emits the first share's. Answers stamped near either end of int64 have
  // windows that do not fit in it: they must count as malformed and open
  // no window, under a tumbling and a sliding query alike.
  for (const int64_t window_ms : {int64_t{10000}, int64_t{40000}}) {
    SCOPED_TRACE(window_ms);
    Harness harness(3, MakeQuery(window_ms));
    const int64_t stamps[] = {5000, INT64_MAX - 5, INT64_MIN + 5};
    for (uint64_t i = 0; i < 3; ++i) {
      client::Client c = MakeClient(i, 25.0);
      c.Subscribe(harness.query, ExactParams());
      const auto shares = AnswerOne(c, 5000);
      harness.Send(harness.proxy0, shares[0], stamps[i]);
      harness.Send(harness.proxy1, shares[1], stamps[i]);
    }
    harness.proxy0.ForwardLanes();
    harness.proxy1.ForwardLanes();
    harness.agg->Drain();
    harness.agg->AdvanceWatermark(60000);
    harness.agg->Flush();
    EXPECT_EQ(harness.agg->join_stats().joined, 3u);
    EXPECT_EQ(harness.agg->malformed_dropped(), 2u);
    // Only the honest answer's windows fire: those holding 5000.
    ASSERT_EQ(harness.results.size(), static_cast<size_t>(window_ms / 10000));
    for (size_t w = 0; w < harness.results.size(); ++w) {
      const engine::Window& window = harness.results[w].window;
      EXPECT_EQ(window.start_ms, 10000 * static_cast<int64_t>(w) -
                                     (window_ms - 10000));
      EXPECT_EQ(window.end_ms, window.start_ms + window_ms);
      EXPECT_EQ(harness.results[w].result.participants, 1u);
    }
  }
}

// --------------------------------------------------- durable store crash

TEST(FailureTest, DurableHistoricalSurvivesSystemRestart) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("privapprox_failure_hist_" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);

  system::SystemConfig config;
  config.num_clients = 40;
  config.historical.enabled = true;
  config.broker.data_dir = dir.string();
  // Two epochs ten seconds apart: every client reports 25 (bucket 2) in the
  // first and 55 (bucket 5) in the second. Each sub-range must read only
  // its own epoch, before and after the restart.
  const std::vector<std::pair<int64_t, int64_t>> ranges = {
      {0, 10000}, {10000, 20000}, {0, 20000}};
  const aggregator::BatchQueryBudget full{1.0};
  std::vector<core::QueryResult> live;
  {
    system::PrivApproxSystem sys(config);
    for (size_t i = 0; i < 40; ++i) {
      auto& db = sys.client(i).database();
      db.CreateTable("vehicle", {"speed"});
      db.GetTable("vehicle").Insert(500, {localdb::Value(25.0)});
      db.GetTable("vehicle").Insert(14500, {localdb::Value(55.0)});
    }
    sys.SubmitQuery(MakeQuery(), ExactParams());
    sys.RunEpoch(5000);
    sys.RunEpoch(15000);
    sys.Flush();
    for (const auto& [from, to] : ranges) {
      live.push_back(sys.RunHistorical(1, from, to, full));
    }
    EXPECT_EQ(live[0].participants, 40u);
    EXPECT_NEAR(live[0].buckets[2].estimate.value, 40.0, 1e-9);
    EXPECT_NEAR(live[0].buckets[5].estimate.value, 0.0, 1e-9);
    EXPECT_EQ(live[1].participants, 40u);
    EXPECT_NEAR(live[1].buckets[2].estimate.value, 0.0, 1e-9);
    EXPECT_NEAR(live[1].buckets[5].estimate.value, 40.0, 1e-9);
    EXPECT_EQ(live[2].participants, 80u);
  }  // "crash": the system object is gone; only the data directory remains

  // A fresh system over the same directory returns the same results.
  {
    system::PrivApproxSystem sys(config);
    sys.SubmitQuery(MakeQuery(), ExactParams());
    for (size_t r = 0; r < ranges.size(); ++r) {
      SCOPED_TRACE(r);
      const core::QueryResult recovered =
          sys.RunHistorical(1, ranges[r].first, ranges[r].second, full);
      EXPECT_EQ(recovered.participants, live[r].participants);
      ASSERT_EQ(recovered.buckets.size(), live[r].buckets.size());
      for (size_t b = 0; b < recovered.buckets.size(); ++b) {
        EXPECT_EQ(recovered.buckets[b].estimate.value,
                  live[r].buckets[b].estimate.value);
        EXPECT_EQ(recovered.buckets[b].randomized_count,
                  live[r].buckets[b].randomized_count);
      }
    }
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace privapprox
