// Tests for the aggregator: join -> decrypt -> window -> estimate, plus the
// historical batch path with second-round sampling.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "aggregator/aggregator.h"
#include <cmath>

#include "aggregator/historical.h"
#include "answer_one.h"
#include "broker/broker.h"
#include "client/client.h"
#include "crypto/message.h"
#include "proxy/proxy.h"
#include "transport/inproc_bus.h"

namespace privapprox::aggregator {
namespace {

core::Query MakeQuery(uint64_t query_id = 1) {
  return core::QueryBuilder()
      .WithId(query_id)
      .WithSql("SELECT speed FROM vehicle")
      .WithAnswerFormat(core::AnswerFormat::UniformNumeric(0, 100, 10, true))
      .WithFrequencyMs(1000)
      .WithWindowMs(10000)
      .WithSlideMs(10000)
      .Build();
}

core::ExecutionParams NoNoiseParams() {
  core::ExecutionParams params;
  params.sampling_fraction = 1.0;
  params.randomization = {1.0, 0.5};
  return params;
}

// Ensures query `query_id`'s lane at both proxies; returns the lane
// options naming its outbound topics.
QueryLaneOptions LaneOver(proxy::Proxy& p0, proxy::Proxy& p1,
                          uint64_t query_id) {
  QueryLaneOptions lane;
  for (proxy::Proxy* proxy : {&p0, &p1}) {
    proxy->EnsureLane(query_id);
    lane.source_topics.push_back(proxy->lane_out_topic(query_id));
  }
  return lane;
}

// Two proxies and an aggregator over one query's lanes, whose topics have
// `num_partitions` partitions — the lane's join shard count.
struct Harness {
  explicit Harness(size_t population, core::ExecutionParams params,
                   bool inverted = false, size_t num_partitions = 2,
                   metrics::Registry* registry = nullptr,
                   bool track_fault_losses = false)
      : query(MakeQuery()),
        proxy0(proxy::ProxyConfig{0, num_partitions}, bus),
        proxy1(proxy::ProxyConfig{1, num_partitions}, bus) {
    AggregatorConfig config;
    config.num_proxies = 2;
    config.population = population;
    config.answers_inverted = inverted;
    config.registry = registry;
    config.track_fault_losses = track_fault_losses;
    aggregator = std::make_unique<Aggregator>(
        config, bus,
        [this](const WindowedResult& r) { results.push_back(r); });
    aggregator->RegisterQuery(query, params,
                              LaneOver(proxy0, proxy1, query.query_id));
  }

  // Enqueues one client share on `proxy`'s lane, keyed by its MID.
  void Send(proxy::Proxy& proxy, const crypto::MessageShare& share,
            int64_t ts) {
    const std::vector<uint8_t> encoded = proxy::Proxy::EncodeShare(share);
    const broker::ProduceView view{share.message_id, encoded, ts};
    proxy.Receive(query.query_id,
                  std::span<const broker::ProduceView>(&view, 1));
  }

  // Ships one client answer (already-built shares) through both proxies.
  void Ship(const std::vector<crypto::MessageShare>& shares, int64_t ts) {
    Send(proxy0, shares[0], ts);
    Send(proxy1, shares[1], ts);
  }

  void Pump() {
    proxy0.ForwardLanes();
    proxy1.ForwardLanes();
    aggregator->Drain();
  }

  broker::Broker broker;
  transport::InProcessBus bus{broker};
  core::Query query;
  proxy::Proxy proxy0;
  proxy::Proxy proxy1;
  std::unique_ptr<Aggregator> aggregator;
  std::vector<WindowedResult> results;
};

client::Client MakeClient(uint64_t id, double speed) {
  client::Client c(client::ClientConfig{id, 2, 99});
  c.database().CreateTable("vehicle", {"speed"})
      .Insert(500, {localdb::Value(speed)});
  return c;
}

TEST(AggregatorTest, EndToEndExactWhenNoNoise) {
  const size_t population = 50;
  Harness harness(population, NoNoiseParams());
  // 50 clients: 30 at 15 mph (bucket 1), 20 at 42 mph (bucket 4).
  for (size_t i = 0; i < population; ++i) {
    client::Client c = MakeClient(i, i < 30 ? 15.0 : 42.0);
    c.Subscribe(harness.query, NoNoiseParams());
    const auto shares = AnswerOne(c, 5000);
    ASSERT_FALSE(shares.empty());
    harness.Ship(shares, 5000);
  }
  harness.Pump();
  harness.aggregator->AdvanceWatermark(10000);
  ASSERT_EQ(harness.results.size(), 1u);
  const core::QueryResult& result = harness.results[0].result;
  EXPECT_EQ(result.participants, population);
  EXPECT_NEAR(result.buckets[1].estimate.value, 30.0, 1e-9);
  EXPECT_NEAR(result.buckets[4].estimate.value, 20.0, 1e-9);
  EXPECT_NEAR(result.buckets[0].estimate.value, 0.0, 1e-9);
  EXPECT_EQ(harness.aggregator->join_stats().joined, population);
}

// Drain leaves its sources alone, because a host may read them again;
// ReleaseConsumed frees exactly what the drains consumed.
TEST(AggregatorTest, ReleaseConsumedFreesOnlyWhatWasDrained) {
  Harness harness(10, NoNoiseParams());
  const auto ship = [&](uint64_t first, uint64_t last) {
    for (uint64_t id = first; id < last; ++id) {
      client::Client c = MakeClient(id, 15.0);
      c.Subscribe(harness.query, NoNoiseParams());
      const auto shares = AnswerOne(c, 5000);
      ASSERT_FALSE(shares.empty());
      harness.Ship(shares, 5000);
    }
  };
  const auto retained = [&](const proxy::Proxy& proxy) {
    return harness.broker.GetTopic(proxy.lane_out_topic(harness.query.query_id))
        .slab_stats()
        .retained_records;
  };
  ship(0, 4);
  harness.Pump();
  EXPECT_EQ(retained(harness.proxy0), 4u);
  EXPECT_EQ(retained(harness.proxy1), 4u);
  // Three more answers are forwarded but not drained: they stay.
  ship(4, 7);
  harness.proxy0.ForwardLanes();
  harness.proxy1.ForwardLanes();
  harness.aggregator->ReleaseConsumed();
  EXPECT_EQ(retained(harness.proxy0), 3u);
  EXPECT_EQ(retained(harness.proxy1), 3u);
  harness.aggregator->Drain();
  harness.aggregator->ReleaseConsumed();
  EXPECT_EQ(retained(harness.proxy0), 0u);
  EXPECT_EQ(retained(harness.proxy1), 0u);
  EXPECT_EQ(harness.aggregator->join_stats().joined, 7u);
}

TEST(AggregatorTest, WindowsFireOnlyPastWatermark) {
  Harness harness(10, NoNoiseParams());
  client::Client c = MakeClient(0, 15.0);
  c.Subscribe(harness.query, NoNoiseParams());
  harness.Ship(AnswerOne(c, 5000), 5000);
  harness.Pump();
  harness.aggregator->AdvanceWatermark(9999);
  EXPECT_TRUE(harness.results.empty());
  harness.aggregator->AdvanceWatermark(10000);
  EXPECT_EQ(harness.results.size(), 1u);
}

TEST(AggregatorTest, FlushFiresPendingWindows) {
  Harness harness(10, NoNoiseParams());
  client::Client c = MakeClient(0, 15.0);
  c.Subscribe(harness.query, NoNoiseParams());
  harness.Ship(AnswerOne(c, 5000), 5000);
  harness.Pump();
  harness.aggregator->Flush();
  EXPECT_EQ(harness.results.size(), 1u);
}

TEST(AggregatorTest, MalformedSharesAreCountedAndDropped) {
  Harness harness(10, NoNoiseParams());
  // Feed garbage directly into the proxy path: two shares whose combined
  // payload is too short for an AnswerMessage.
  harness.Ship({crypto::MessageShare{77, {1, 2}},
                crypto::MessageShare{77, {3, 4}}},
               100);
  harness.Pump();
  EXPECT_EQ(harness.aggregator->malformed_dropped(), 1u);
  harness.aggregator->Flush();
  EXPECT_TRUE(harness.results.empty());
}

TEST(AggregatorTest, WrongQueryIdIsDropped) {
  Harness harness(10, NoNoiseParams());
  // A valid message for a different query id.
  crypto::AnswerMessage message{/*query_id=*/999, BitVector(11)};
  crypto::XorSplitter splitter(2, crypto::ChaCha20Rng::FromSeed(3, 0));
  harness.Ship(splitter.Split(message.Serialize()), 100);
  harness.Pump();
  EXPECT_EQ(harness.aggregator->wrong_query_dropped(), 1u);
}

TEST(AggregatorTest, WrongWidthAnswerIsDropped) {
  Harness harness(10, NoNoiseParams());
  crypto::AnswerMessage message{/*query_id=*/1, BitVector(5)};  // wrong width
  crypto::XorSplitter splitter(2, crypto::ChaCha20Rng::FromSeed(4, 0));
  harness.Ship(splitter.Split(message.Serialize()), 100);
  harness.Pump();
  EXPECT_EQ(harness.aggregator->wrong_query_dropped(), 1u);
}

TEST(AggregatorTest, LostShareNeverJoins) {
  Harness harness(10, NoNoiseParams());
  client::Client c = MakeClient(0, 15.0);
  c.Subscribe(harness.query, NoNoiseParams());
  // Only proxy 0 receives its share; proxy 1's is lost.
  harness.Send(harness.proxy0, AnswerOne(c, 5000)[0], 5000);
  harness.Pump();
  EXPECT_EQ(harness.aggregator->join_stats().joined, 0u);
  harness.aggregator->AdvanceWatermark(100000);
  // No complete message ever entered a window: nothing fires, and the
  // partial group is eventually evicted by the join timeout.
  EXPECT_TRUE(harness.results.empty());
  EXPECT_EQ(harness.aggregator->join_stats().evicted_partial, 1u);
}

TEST(AggregatorTest, DebiasesRandomizedAnswers) {
  // With RR on and many answers, the de-biased estimate approaches truth.
  const size_t population = 3000;
  core::ExecutionParams params;
  params.sampling_fraction = 1.0;
  params.randomization = {0.5, 0.5};
  Harness harness(population, params);
  for (size_t i = 0; i < population; ++i) {
    client::Client c = MakeClient(i, i < 1800 ? 15.0 : 42.0);  // 60% bucket 1
    c.Subscribe(harness.query, params);
    harness.Ship(AnswerOne(c, 5000), 5000);
  }
  harness.Pump();
  harness.aggregator->Flush();
  ASSERT_EQ(harness.results.size(), 1u);
  const auto& buckets = harness.results[0].result.buckets;
  EXPECT_NEAR(buckets[1].estimate.value, 1800.0, 150.0);
  EXPECT_NEAR(buckets[4].estimate.value, 1200.0, 150.0);
  // Error bars should cover the truth.
  EXPECT_LE(std::fabs(buckets[1].estimate.value - 1800.0),
            buckets[1].estimate.error * 1.5);
}

TEST(AggregatorTest, InvertedModeRecoversYesCounts) {
  const size_t population = 40;
  Harness harness(population, NoNoiseParams(), /*inverted=*/true);
  for (size_t i = 0; i < population; ++i) {
    client::Client c = [&] {
      client::ClientConfig config;
      config.client_id = i;
      config.num_proxies = 2;
      config.seed = 99;
      config.invert_answers = true;
      client::Client cl(config);
      cl.database().CreateTable("vehicle", {"speed"})
          .Insert(500, {localdb::Value(15.0)});
      return cl;
    }();
    c.Subscribe(harness.query, NoNoiseParams());
    harness.Ship(AnswerOne(c, 5000), 5000);
  }
  harness.Pump();
  harness.aggregator->Flush();
  ASSERT_EQ(harness.results.size(), 1u);
  // All 40 clients are in bucket 1; the inverted pipeline must recover 40.
  EXPECT_NEAR(harness.results[0].result.buckets[1].estimate.value, 40.0,
              1e-6);
  // And 0 for an empty bucket.
  EXPECT_NEAR(harness.results[0].result.buckets[0].estimate.value, 0.0, 1e-6);
}

TEST(AggregatorTest, RejectsBadConfig) {
  broker::Broker b;
  transport::InProcessBus bus(b);
  proxy::Proxy p0(proxy::ProxyConfig{0, 2}, bus);
  proxy::Proxy p1(proxy::ProxyConfig{1, 2}, bus);
  AggregatorConfig config;
  config.num_proxies = 1;
  config.population = 10;
  EXPECT_THROW(Aggregator(config, bus, [](const WindowedResult&) {}),
               std::invalid_argument);
  config.num_proxies = 2;
  config.population = 0;
  EXPECT_THROW(Aggregator(config, bus, [](const WindowedResult&) {}),
               std::invalid_argument);
  // A lane needs exactly one source topic per proxy; there is no default.
  config.population = 10;
  Aggregator agg(config, bus, [](const WindowedResult&) {});
  EXPECT_THROW(agg.RegisterQuery(MakeQuery(), NoNoiseParams(), {}),
               std::invalid_argument);
  QueryLaneOptions one_source;
  one_source.source_topics = {"proxy0.q1.out"};
  EXPECT_THROW(agg.RegisterQuery(MakeQuery(), NoNoiseParams(), one_source),
               std::invalid_argument);
}

TEST(AggregatorTest, RejectsDuplicateQueryRegistration) {
  // Lane state — join groups, windows, watermarks — is keyed by QID, so a
  // second registration under the same QID would silently cross two
  // queries' streams. The coordinator must reject it up front.
  broker::Broker b;
  transport::InProcessBus bus(b);
  proxy::Proxy p0(proxy::ProxyConfig{0, 2}, bus);
  proxy::Proxy p1(proxy::ProxyConfig{1, 2}, bus);
  AggregatorConfig config;
  config.num_proxies = 2;
  config.population = 10;
  Aggregator agg(config, bus, [](const WindowedResult&) {});
  agg.RegisterQuery(MakeQuery(), NoNoiseParams(), LaneOver(p0, p1, 1));
  EXPECT_THROW(
      agg.RegisterQuery(MakeQuery(), NoNoiseParams(), LaneOver(p0, p1, 1)),
      std::invalid_argument);
  // A different QID is fine; the first lane is unaffected.
  core::Query other = core::QueryBuilder()
                          .WithId(2)
                          .WithSql("SELECT speed FROM vehicle")
                          .WithAnswerFormat(
                              core::AnswerFormat::UniformNumeric(0, 100, 10,
                                                                 true))
                          .WithFrequencyMs(1000)
                          .WithWindowMs(10000)
                          .WithSlideMs(10000)
                          .Build();
  EXPECT_NO_THROW(
      agg.RegisterQuery(other, NoNoiseParams(), LaneOver(p0, p1, 2)));
}

TEST(AggregatorTest, RefusesSourcesThatAreNotCoPartitioned) {
  // A MID's shares meet only within one join shard, the partition
  // PartitionForKey puts them in; sources of different partition counts
  // put them in different ones.
  broker::Broker b;
  transport::InProcessBus bus(b);
  proxy::Proxy p0(proxy::ProxyConfig{0, 4}, bus);
  proxy::Proxy p1(proxy::ProxyConfig{1, 2}, bus);
  AggregatorConfig config;
  config.num_proxies = 2;
  config.population = 10;
  Aggregator agg(config, bus, [](const WindowedResult&) {});
  const QueryLaneOptions lane = LaneOver(p0, p1, 1);
  try {
    agg.SourcePartitions(lane);
    ADD_FAILURE() << "sources of 4 and 2 partitions were accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("proxy0.q1.out has 4"), std::string::npos) << what;
    EXPECT_NE(what.find("proxy1.q1.out has 2"), std::string::npos) << what;
  }
  EXPECT_THROW(agg.RegisterQuery(MakeQuery(), NoNoiseParams(), lane),
               std::invalid_argument);
  EXPECT_FALSE(agg.HasQuery(1));
  // Co-partitioned sources register, one shard per partition.
  proxy::Proxy p2(proxy::ProxyConfig{2, 4}, bus);
  QueryLaneOptions copartitioned;
  copartitioned.source_topics = {p0.lane_out_topic(1)};
  p2.EnsureLane(1);
  copartitioned.source_topics.push_back(p2.lane_out_topic(1));
  EXPECT_EQ(agg.SourcePartitions(copartitioned), 4u);
  agg.RegisterQuery(MakeQuery(), NoNoiseParams(), copartitioned);
  EXPECT_TRUE(agg.HasQuery(1));
}

TEST(AggregatorTest, MisKeyedRecordIsMalformed) {
  // A share keyed by anything but its MID sits in its key's partition,
  // where the MID's other shares never are: it is malformed, not a share
  // a shard could join.
  Harness harness(10, NoNoiseParams());
  client::Client c = MakeClient(0, 15.0);
  c.Subscribe(harness.query, NoNoiseParams());
  const auto shares = AnswerOne(c, 5000);
  ASSERT_FALSE(shares.empty());
  harness.Send(harness.proxy0, shares[0], 5000);
  const crypto::MessageShare& share = shares[1];
  const std::vector<uint8_t> encoded = proxy::Proxy::EncodeShare(share);
  const broker::ProduceView view{share.message_id + 1, encoded, 5000};
  harness.proxy1.Receive(harness.query.query_id,
                         std::span<const broker::ProduceView>(&view, 1));
  harness.Pump();
  EXPECT_EQ(harness.aggregator->malformed_dropped(), 1u);
  EXPECT_EQ(harness.aggregator->join_stats().joined, 0u);
  harness.aggregator->Flush();
  EXPECT_TRUE(harness.results.empty());
}

// ---------------------------------------------------------------- sharding

// Everything observable of one run over lane topics of `num_partitions`
// partitions: fired results, join stats, malformed records and the tapped
// answers, sorted (the tap's order follows the partition layout).
struct ShardedRun {
  std::vector<WindowedResult> results;
  engine::JoinStats join;
  uint64_t malformed = 0;
  std::vector<std::pair<int64_t, std::string>> tapped;
};

// 60 clients across two buckets, fed with every hazard the join and the
// panes handle: duplicated shares on both proxies, a truncated record, a
// MID missing its second share (expired at the watermark), a late answer
// and lost-MID notes. No pool is wired, so the shards drain one after
// another — this isolates the partition/merge logic itself.
ShardedRun RunSharded(size_t num_partitions) {
  const size_t population = 60;
  Harness harness(population, NoNoiseParams(), /*inverted=*/false,
                  num_partitions, /*registry=*/nullptr,
                  /*track_fault_losses=*/true);
  ShardedRun run;
  harness.aggregator->set_answer_tap(
      [&](std::span<const broker::ProduceView> answers) {
        for (const broker::ProduceView& record : answers) {
          EXPECT_EQ(record.key, harness.query.query_id);
          const crypto::AnswerMessage message =
              crypto::AnswerMessage::Deserialize(record.payload);
          EXPECT_EQ(message.query_id, harness.query.query_id);
          EXPECT_EQ(record.payload.size(),
                    crypto::AnswerMessage::WireSize(message.answer.size()));
          run.tapped.emplace_back(record.timestamp_ms,
                                  message.answer.ToString());
        }
      });
  const auto answer_of = [&](uint64_t id, int64_t ts) {
    client::Client c = MakeClient(id, id % 2 == 0 ? 15.0 : 42.0);
    c.Subscribe(harness.query, NoNoiseParams());
    std::vector<crypto::MessageShare> shares = AnswerOne(c, ts);
    EXPECT_FALSE(shares.empty());
    return shares;
  };
  uint64_t missing_mid = 0;
  for (uint64_t i = 0; i < population; ++i) {
    const std::vector<crypto::MessageShare> shares = answer_of(i, 5000);
    if (i == 7) {
      harness.Send(harness.proxy0, shares[0], 5000);  // its twin is lost
      missing_mid = shares[0].message_id;
      continue;
    }
    harness.Ship(shares, 5000);
    if (i % 11 == 0) {
      harness.Send(harness.proxy0, shares[0], 5000);
    }
    if (i % 13 == 0) {
      harness.Send(harness.proxy1, shares[1], 5000);
    }
  }
  const std::vector<uint8_t> truncated = {1, 2, 3};
  const broker::ProduceView garbage{4242, truncated, 5000};
  harness.proxy1.Receive(harness.query.query_id,
                         std::span<const broker::ProduceView>(&garbage, 1));
  harness.Pump();
  const uint64_t lost[] = {missing_mid, 999999};
  harness.aggregator->NoteFaultLostMids(harness.query.query_id, lost, 5000);
  harness.aggregator->AdvanceWatermark(10000);
  // Late: its window has fired, so it is tapped but not counted.
  harness.Ship(answer_of(population, 5000), 5000);
  harness.Ship(answer_of(population + 1, 15000), 15000);
  harness.Pump();
  harness.aggregator->AdvanceWatermark(100000);  // expires the missing MID
  harness.aggregator->Flush();
  run.results = harness.results;
  run.join = harness.aggregator->join_stats();
  run.malformed = harness.aggregator->malformed_dropped();
  std::sort(run.tapped.begin(), run.tapped.end());
  return run;
}

TEST(AggregatorTest, ShardedJoinIsBitIdenticalToSingleShard) {
  // One join shard per partition: every partition count gives the results,
  // join statistics, malformed count and tapped answers of the one-shard
  // run.
  const ShardedRun oracle = RunSharded(1);
  ASSERT_EQ(oracle.results.size(), 2u);
  EXPECT_EQ(oracle.results[0].result.participants, 59u);
  EXPECT_EQ(oracle.results[0].result.lost_to_faults, 2u);
  EXPECT_EQ(oracle.join.joined, 61u);
  EXPECT_EQ(oracle.join.duplicates_dropped, 11u);
  EXPECT_EQ(oracle.join.evicted_partial, 1u);
  EXPECT_EQ(oracle.malformed, 1u);
  EXPECT_EQ(oracle.tapped.size(), 61u);
  for (size_t partitions : {2u, 3u, 4u, 8u}) {
    SCOPED_TRACE("partitions=" + std::to_string(partitions));
    const ShardedRun sharded = RunSharded(partitions);
    ASSERT_EQ(sharded.results.size(), oracle.results.size());
    for (size_t w = 0; w < oracle.results.size(); ++w) {
      const core::QueryResult& a = oracle.results[w].result;
      const core::QueryResult& b = sharded.results[w].result;
      EXPECT_EQ(sharded.results[w].window, oracle.results[w].window);
      EXPECT_EQ(b.participants, a.participants);
      EXPECT_EQ(b.lost_to_faults, a.lost_to_faults);
      ASSERT_EQ(b.buckets.size(), a.buckets.size());
      for (size_t i = 0; i < a.buckets.size(); ++i) {
        EXPECT_EQ(b.buckets[i].estimate.value, a.buckets[i].estimate.value);
        EXPECT_EQ(b.buckets[i].estimate.error, a.buckets[i].estimate.error);
        EXPECT_EQ(b.buckets[i].randomized_count, a.buckets[i].randomized_count);
      }
    }
    EXPECT_EQ(sharded.join.joined, oracle.join.joined);
    EXPECT_EQ(sharded.join.duplicates_dropped, oracle.join.duplicates_dropped);
    EXPECT_EQ(sharded.join.evicted_partial, oracle.join.evicted_partial);
    EXPECT_EQ(sharded.join.late_dropped, oracle.join.late_dropped);
    EXPECT_EQ(sharded.join.malformed_dropped, oracle.join.malformed_dropped);
    EXPECT_EQ(sharded.malformed, oracle.malformed);
    EXPECT_EQ(sharded.tapped, oracle.tapped);
  }
}

TEST(AggregatorTest, ShardMetricsAccountForEveryShare) {
  // The aggregator's per-shard families, on the registry its config names,
  // partition the totals: routed shares sum to the joiner's input and
  // per-shard joins sum to the joined count.
  const size_t population = 40;
  const size_t num_partitions = 4;
  metrics::Registry registry;
  Harness harness(population, NoNoiseParams(), /*inverted=*/false,
                  num_partitions, &registry);
  for (size_t i = 0; i < population; ++i) {
    client::Client c = MakeClient(i, 15.0);
    c.Subscribe(harness.query, NoNoiseParams());
    harness.Ship(AnswerOne(c, 5000), 5000);
  }
  harness.Pump();
  const std::string qid = std::to_string(harness.query.query_id);
  uint64_t routed = 0;
  uint64_t joined = 0;
  for (size_t s = 0; s < num_partitions; ++s) {
    const metrics::Labels labels = {{"query", qid},
                                    {"shard", std::to_string(s)}};
    routed += registry.GetCounter("privapprox_agg_shard_shares_total", "",
                                  labels).Value();
    joined += registry.GetCounter("privapprox_agg_shard_joined_total", "",
                                  labels).Value();
  }
  EXPECT_EQ(routed, population * 2);  // one share per proxy per client
  EXPECT_EQ(joined, population);
  // Both proxies saw a balanced MID mix: the gauge is near 1000 (per-mille
  // of the mean) — loosely bounded, the point is that it was set at all.
  const int64_t imbalance =
      registry.GetGauge("privapprox_agg_shard_imbalance_milli", "",
                        {{"query", qid}})
          .Value();
  EXPECT_GE(imbalance, 1000);
  EXPECT_LT(imbalance, 3000);
}

TEST(AggregatorTest, WatermarkSweepIsTimedPerLane) {
  // privapprox_agg_evict_ns observes each lane's join sweep once per
  // watermark advance, whether or not a window fires.
  metrics::Registry registry;
  Harness harness(10, NoNoiseParams(), /*inverted=*/false,
                  /*num_partitions=*/2, &registry);
  core::Query second = MakeQuery(2);
  harness.aggregator->RegisterQuery(
      second, NoNoiseParams(),
      LaneOver(harness.proxy0, harness.proxy1, second.query_id));
  const metrics::Histogram& evict_ns =
      registry.GetHistogram("privapprox_agg_evict_ns", "");
  EXPECT_EQ(evict_ns.Count(), 0u);
  for (const int64_t watermark : {5000, 10000, 20000}) {
    harness.aggregator->AdvanceWatermark(watermark);
  }
  EXPECT_EQ(evict_ns.Count(), 6u);  // two lanes x three watermarks
}

TEST(AggregatorTest, LostMidWidensItsWindowOnce) {
  // Under fault tracking a MID reported lost counts once in the windows
  // holding its event time, however often it is reported, and a watermark
  // so low that the prune cutoff would leave int64 forgets no MID.
  Harness harness(10, NoNoiseParams(), /*inverted=*/false,
                  /*num_partitions=*/2, /*registry=*/nullptr,
                  /*track_fault_losses=*/true);
  client::Client c = MakeClient(0, 15.0);
  c.Subscribe(harness.query, NoNoiseParams());
  harness.Ship(AnswerOne(c, 5000), 5000);
  harness.Pump();
  const uint64_t lost[] = {77};
  harness.aggregator->NoteFaultLostMids(harness.query.query_id, lost, 5000);
  harness.aggregator->AdvanceWatermark(INT64_MIN + 5);
  harness.aggregator->NoteFaultLostMids(harness.query.query_id, lost, 5000);
  harness.aggregator->AdvanceWatermark(10000);
  ASSERT_EQ(harness.results.size(), 1u);
  EXPECT_EQ(harness.results[0].result.participants, 1u);
  EXPECT_EQ(harness.results[0].result.lost_to_faults, 1u);
}

TEST(AggregatorTest, AnswerTapGetsEachShardsDrainAsOneSpan) {
  // The historical tee sees each shard's answers of one drain as one span
  // of QID-keyed records, shards in shard order, so a durable store writes
  // one batch per span.
  const size_t population = 40;
  Harness harness(population, NoNoiseParams(), /*inverted=*/false,
                  /*num_partitions=*/2);
  std::vector<std::vector<std::pair<int64_t, crypto::AnswerMessage>>> spans;
  harness.aggregator->set_answer_tap(
      [&](std::span<const broker::ProduceView> answers) {
        auto& span = spans.emplace_back();
        for (const broker::ProduceView& record : answers) {
          EXPECT_EQ(record.key, harness.query.query_id);
          span.emplace_back(record.timestamp_ms,
                            crypto::AnswerMessage::Deserialize(record.payload));
        }
      });
  for (size_t i = 0; i < population; ++i) {
    client::Client c = MakeClient(i, 15.0);
    c.Subscribe(harness.query, NoNoiseParams());
    harness.Ship(AnswerOne(c, 5000), 5000);
  }
  harness.Pump();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].size() + spans[1].size(), population);
  for (const auto& span : spans) {
    for (const auto& [ts, message] : span) {
      EXPECT_EQ(ts, 5000);
      EXPECT_EQ(message.query_id, harness.query.query_id);
      EXPECT_TRUE(message.answer.Get(1));  // 15 mph
    }
  }
  harness.Pump();  // nothing new joined: no empty span
  EXPECT_EQ(spans.size(), 2u);
}

// A bus over another whose Poll returns at most 16 records, as a TCP
// client budgeting response bytes does, and throws once: on the second
// poll of `flaky_topic`, as a peer that dies mid-drain does.
class FlakyBus final : public transport::MessageBus {
 public:
  FlakyBus(transport::MessageBus& inner, std::string flaky_topic, bool fail)
      : inner_(inner), flaky_topic_(std::move(flaky_topic)), fail_(fail) {}

  void EnsureTopic(const std::string& topic, size_t partitions) override {
    inner_.EnsureTopic(topic, partitions);
  }
  size_t NumPartitions(const std::string& topic) override {
    return inner_.NumPartitions(topic);
  }
  void Produce(const std::string& topic,
               std::span<const broker::ProduceView> records) override {
    inner_.Produce(topic, records);
  }
  size_t Poll(const std::string& topic, size_t partition, uint64_t offset,
              size_t max_records,
              std::vector<broker::RecordView>& out) override {
    if (fail_ && topic == flaky_topic_ && ++flaky_polls_ == 2) {
      throw std::runtime_error("FlakyBus: peer died");
    }
    return inner_.Poll(topic, partition, offset,
                       std::min<size_t>(max_records, 16), out);
  }
  uint64_t EndOffset(const std::string& topic, size_t partition) override {
    return inner_.EndOffset(topic, partition);
  }
  void Release(const std::string& topic,
               std::span<const uint64_t> below) override {
    inner_.Release(topic, below);
  }

 private:
  transport::MessageBus& inner_;
  std::string flaky_topic_;
  bool fail_;
  int flaky_polls_ = 0;
};

// Ships `population` clients' answers to `query` through both proxies'
// lanes and forwards them.
void ShipAnswers(const core::Query& query, size_t population,
                 proxy::Proxy& proxy0, proxy::Proxy& proxy1) {
  for (size_t i = 0; i < population; ++i) {
    client::Client c = MakeClient(i, static_cast<double>(i % 100));
    c.Subscribe(query, NoNoiseParams());
    const auto shares = AnswerOne(c, 5000);
    for (size_t j = 0; j < 2; ++j) {
      const crypto::MessageShare& share = shares[j];
      const std::vector<uint8_t> encoded = proxy::Proxy::EncodeShare(share);
      const broker::ProduceView view{share.message_id, encoded, 5000};
      (j == 0 ? proxy0 : proxy1)
          .Receive(query.query_id,
                   std::span<const broker::ProduceView>(&view, 1));
    }
  }
  proxy0.ForwardLanes();
  proxy1.ForwardLanes();
}

// 100 answers drained over a FlakyBus; with `fail`, the first Drain throws
// and a second one finishes the job. Returns the fired results.
std::vector<WindowedResult> RunOverFlakyBus(bool fail) {
  const size_t population = 100;
  broker::Broker broker;
  transport::InProcessBus inner(broker);
  proxy::Proxy proxy0(proxy::ProxyConfig{0, 2}, inner);
  proxy::Proxy proxy1(proxy::ProxyConfig{1, 2}, inner);
  const core::Query query = MakeQuery();
  const QueryLaneOptions lane = LaneOver(proxy0, proxy1, query.query_id);
  FlakyBus bus(inner, lane.source_topics[1], fail);
  AggregatorConfig config;
  config.num_proxies = 2;
  config.population = population;
  std::vector<WindowedResult> results;
  Aggregator agg(config, bus,
                 [&](const WindowedResult& r) { results.push_back(r); });
  agg.RegisterQuery(query, NoNoiseParams(), lane);
  ShipAnswers(query, population, proxy0, proxy1);
  if (fail) {
    EXPECT_THROW(agg.Drain(), std::runtime_error);
    // Shard 0 committed source 1's first poll and shard 1 drained in full:
    // all of it joined, and only partition 0's uncommitted tail waits.
    const uint64_t in_p0 = agg.SourceOffsets()[0].second[0];
    EXPECT_GT(in_p0, 16u);
    EXPECT_EQ(agg.SourceOffsets()[1].second[0], 16u);
    EXPECT_EQ(agg.join_stats().joined, population - (in_p0 - 16));
    EXPECT_EQ(agg.pending_join_groups(), in_p0 - 16);
  }
  // The retry reports what the failed call consumed as well.
  EXPECT_EQ(agg.Drain(), 2 * population);
  EXPECT_EQ(agg.join_stats().joined, population);
  EXPECT_EQ(agg.pending_join_groups(), 0u);
  agg.Flush();
  return results;
}

TEST(AggregatorTest, FailedDrainKeepsEveryLanesCountForTheRetry) {
  // Lanes drain in QID order: query 1's lane drains in full, then query 2's
  // second source throws. The retry reports both lanes' records.
  const size_t population = 50;
  broker::Broker broker;
  transport::InProcessBus inner(broker);
  proxy::Proxy proxy0(proxy::ProxyConfig{0, 2}, inner);
  proxy::Proxy proxy1(proxy::ProxyConfig{1, 2}, inner);
  const core::Query first = MakeQuery(1);
  const core::Query second = MakeQuery(2);
  const QueryLaneOptions first_lane = LaneOver(proxy0, proxy1, 1);
  const QueryLaneOptions second_lane = LaneOver(proxy0, proxy1, 2);
  FlakyBus bus(inner, second_lane.source_topics[1], /*fail=*/true);
  AggregatorConfig config;
  config.num_proxies = 2;
  config.population = population;
  Aggregator agg(config, bus, [](const WindowedResult&) {});
  agg.RegisterQuery(first, NoNoiseParams(), first_lane);
  agg.RegisterQuery(second, NoNoiseParams(), second_lane);
  ShipAnswers(first, population, proxy0, proxy1);
  ShipAnswers(second, population, proxy0, proxy1);
  EXPECT_THROW(agg.Drain(), std::runtime_error);
  EXPECT_EQ(agg.Drain(), 2 * 2 * population);
  EXPECT_EQ(agg.Drain(), 0u);
  EXPECT_EQ(agg.pending_join_groups(), 0u);
}

TEST(AggregatorTest, FailedPollLosesNoCommittedRecord) {
  const std::vector<WindowedResult> oracle = RunOverFlakyBus(false);
  const std::vector<WindowedResult> retried = RunOverFlakyBus(true);
  ASSERT_EQ(oracle.size(), 1u);
  ASSERT_EQ(retried.size(), oracle.size());
  EXPECT_EQ(retried[0].window, oracle[0].window);
  EXPECT_EQ(retried[0].result.participants, 100u);
  for (size_t i = 0; i < oracle[0].result.buckets.size(); ++i) {
    EXPECT_EQ(retried[0].result.buckets[i].estimate.value,
              oracle[0].result.buckets[i].estimate.value);
    EXPECT_EQ(retried[0].result.buckets[i].estimate.error,
              oracle[0].result.buckets[i].estimate.error);
  }
}

// ------------------------------------------------------------- historical

// Appends one answer to `store` as the historical tee does: keyed by its
// QID, the payload the message in AnswerMessage wire form.
void StoreAnswer(broker::Topic& store, uint64_t query_id, int64_t ts,
                 const BitVector& answer) {
  const std::vector<uint8_t> payload =
      crypto::AnswerMessage{query_id, answer}.Serialize();
  const broker::ProduceView record{query_id, payload, ts};
  store.AppendViews({&record, 1});
}

TEST(HistoricalAnalyticsTest, FullBudgetMatchesStreamCounts) {
  broker::Topic store("historical", 1);
  BitVector yes(2), no(2);
  yes.Set(0, true);
  no.Set(1, true);
  for (int i = 0; i < 60; ++i) {
    StoreAnswer(store, 1, i, yes);
  }
  for (int i = 60; i < 100; ++i) {
    StoreAnswer(store, 1, i, no);
  }
  core::ExecutionParams params;
  params.randomization = {1.0, 0.5};
  HistoricalAnalytics analytics(store, 1, 2, params, /*population=*/100);
  Xoshiro256 rng(1);
  const core::QueryResult result =
      analytics.Run(0, 100, BatchQueryBudget{1.0}, rng);
  EXPECT_NEAR(result.buckets[0].estimate.value, 60.0, 1e-9);
  EXPECT_NEAR(result.buckets[1].estimate.value, 40.0, 1e-9);
}

TEST(HistoricalAnalyticsTest, SecondRoundSamplingStillUnbiased) {
  broker::Topic store("historical", 1);
  BitVector yes(1);
  yes.Set(0, true);
  for (int i = 0; i < 6000; ++i) {
    StoreAnswer(store, 1, i, yes);
  }
  for (int i = 6000; i < 10000; ++i) {
    StoreAnswer(store, 1, i, BitVector(1));
  }
  core::ExecutionParams params;
  params.randomization = {1.0, 0.5};
  HistoricalAnalytics analytics(store, 1, 1, params, /*population=*/10000);
  Xoshiro256 rng(2);
  const core::QueryResult result =
      analytics.Run(0, 10000, BatchQueryBudget{0.3}, rng);
  // Estimate scaled back to population despite processing ~30%.
  EXPECT_NEAR(result.buckets[0].estimate.value, 6000.0, 400.0);
  EXPECT_LT(result.participants, 3600u);
  EXPECT_GT(result.buckets[0].estimate.error, 0.0);
}

TEST(HistoricalAnalyticsTest, TimeRangeRestrictsData) {
  broker::Topic store("historical", 1);
  BitVector yes(1);
  yes.Set(0, true);
  for (int i = 0; i < 100; ++i) {
    StoreAnswer(store, 1, i, yes);
  }
  core::ExecutionParams params;
  params.randomization = {1.0, 0.5};
  HistoricalAnalytics analytics(store, 1, 1, params, 100);
  Xoshiro256 rng(3);
  EXPECT_EQ(analytics.Run(0, 50, BatchQueryBudget{1.0}, rng).participants,
            50u);
  EXPECT_EQ(analytics.Run(20, 50, BatchQueryBudget{1.0}, rng).participants,
            30u);
  EXPECT_EQ(analytics.Run(200, 300, BatchQueryBudget{1.0}, rng).participants,
            0u);
}

TEST(HistoricalAnalyticsTest, DrawsOnlyForItsOwnQuery) {
  // Query 1's second-round sample is the same whether or not query 2's
  // records sit between its own. Its records of another width (an earlier
  // query under QID 1) take their draw and are skipped.
  BitVector yes(3), narrow(2);
  yes.Set(1, true);
  broker::Topic alone("historical", 1);
  broker::Topic shared("historical", 1);
  for (int i = 0; i < 2000; ++i) {
    const BitVector& answer = i % 7 == 0 ? narrow : yes;
    StoreAnswer(alone, 1, i, answer);
    StoreAnswer(shared, 1, i, answer);
    StoreAnswer(shared, 2, i, yes);
  }
  core::ExecutionParams params;
  params.randomization = {1.0, 0.5};
  const auto run = [&](const broker::Topic& store) {
    Xoshiro256 rng(5);
    return HistoricalAnalytics(store, 1, 3, params, 2000)
        .Run(0, 2000, BatchQueryBudget{0.3}, rng);
  };
  const core::QueryResult a = run(alone);
  const core::QueryResult b = run(shared);
  EXPECT_EQ(b.participants, a.participants);
  EXPECT_EQ(b.buckets[1].randomized_count, a.buckets[1].randomized_count);
  EXPECT_GT(a.participants, 0u);
  EXPECT_LT(a.participants, 2000u * 6 / 7 / 2);
}

TEST(HistoricalAnalyticsTest, RejectsBadBudget) {
  broker::Topic store("historical", 1);
  core::ExecutionParams params;
  HistoricalAnalytics analytics(store, 1, 1, params, 10);
  Xoshiro256 rng(4);
  EXPECT_THROW(analytics.Run(0, 10, BatchQueryBudget{0.0}, rng),
               std::invalid_argument);
  EXPECT_THROW(analytics.Run(0, 10, BatchQueryBudget{1.5}, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace privapprox::aggregator
