#include "ledger.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>

#include "broker/broker.h"
#include "client/client.h"
#include "common/arena.h"
#include "common/rng.h"
#include "core/answer.h"
#include "core/randomized_response.h"
#include "crypto/chacha20.h"
#include "crypto/xor_cipher.h"
#include "deploy/result_wire.h"
#include "engine/join.h"
#include "proxy/proxy.h"
#include "transport/inproc_bus.h"
#include "transport/tcp_bus.h"
#include "transport/wire.h"

namespace perfbench {

namespace {

constexpr int kInprocTid = 1;
constexpr int kReplayTid = 2;
constexpr int kTcpTid = 3;
constexpr size_t kProduceChunk = 2048;  // records per Produce frame, as FleetDriver

// Time and heap allocations spent in one layer, and the work it did.
struct Layer {
  int64_t ns = 0;
  uint64_t allocs = 0;
  uint64_t work = 0;

  double NsPer() const { return work == 0 ? 0.0 : double(ns) / double(work); }
  double AllocsPer() const {
    return work == 0 ? 0.0 : double(allocs) / double(work);
  }
};

// Times `fn` as one span; accumulates into `layer` only for timed epochs
// (epoch 0 is the warm-up).
template <typename Fn>
void Measure(SpanRecorder& spans, const char* name, int tid, int64_t epoch,
             Layer& layer, Fn&& fn) {
  const uint64_t allocs = Allocs();
  const int64_t start = NowNs();
  const uint64_t work = fn();
  const int64_t end = NowNs();
  spans.Add(name, tid, start, end, epoch, work);
  if (epoch > 0) {
    layer.ns += end - start;
    layer.allocs += Allocs() - allocs;
    layer.work += work;
  }
}

// Answers every client in id order and groups the share views per
// (query, proxy) lane, as FleetDriver::RunEpoch does. Returns answers.
uint64_t AnswerAll(std::vector<client::Client*>& clients, int64_t now_ms,
                   EpochArena& arena,
                   std::vector<std::vector<broker::ProduceView>>& lanes,
                   std::vector<uint64_t>& per_query,
                   const std::vector<uint64_t>& qids) {
  for (auto& lane : lanes) {
    lane.clear();
  }
  std::vector<crypto::ShareView> views(qids.size() * kProxies);
  std::vector<uint64_t> answered;
  uint64_t answers = 0;
  for (client::Client* c : clients) {
    c->AnswerSubscribedInto(now_ms, arena, views, answered);
    size_t k = 0;
    for (const uint64_t qid : answered) {
      while (qids[k] != qid) {
        ++k;
      }
      ++answers;
      ++per_query[k];
      for (size_t j = 0; j < kProxies; ++j) {
        const crypto::ShareView& view = views[k * kProxies + j];
        lanes[k * kProxies + j].push_back(
            broker::ProduceView{view.message_id, view.bytes(), now_ms});
      }
    }
  }
  return answers;
}

PartOutcome Finish(Checker& checker, int64_t last_epoch,
                   const AnswerCounts& counts) {
  PartOutcome outcome;
  outcome.failures = checker.Verify(last_epoch, counts);
  outcome.attempted = counts.attempted;
  outcome.failed = checker.failed();
  return outcome;
}

}  // namespace

void SpanRecorder::Add(const char* name, int tid, int64_t start_ns,
                       int64_t end_ns, int64_t epoch, uint64_t count) {
  spans_.push_back(Span{name, tid, start_ns, end_ns, epoch, count});
}

std::string SpanRecorder::ToChromeTracingJson(const std::string& tags) const {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << double(s.start_ns - origin) / 1e3
        << ",\"dur\":" << double(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"epoch\":" << s.epoch << ",\"count\":" << s.count
        << "}}";
  }
  out << "],\"otherData\":{\"tags\":\"" << tags << "\"}}";
  return out.str();
}

PartOutcome RunInprocLedger(const Workload& workload, uint64_t seed,
                            Generator& generator, int64_t epochs,
                            SpanRecorder& spans, MetricList& out) {
  const size_t nq = workload.queries.size();
  broker::Broker broker;
  transport::InProcessBus bus(broker);
  std::vector<std::unique_ptr<proxy::Proxy>> proxies;
  for (size_t j = 0; j < kProxies; ++j) {
    proxy::ProxyConfig config;
    config.proxy_index = j;
    proxies.push_back(std::make_unique<proxy::Proxy>(config, bus));
  }
  std::vector<aggregator::WindowedResult> fired;
  aggregator::AggregatorConfig agg_config;
  agg_config.num_proxies = kProxies;
  agg_config.population = workload.clients;
  aggregator::Aggregator agg(
      agg_config, bus,
      [&fired](const aggregator::WindowedResult& r) { fired.push_back(r); });

  std::vector<std::unique_ptr<client::Client>> owned;
  std::vector<client::Client*> clients;
  for (size_t i = 0; i < workload.clients; ++i) {
    client::ClientConfig config;
    config.client_id = i;
    config.num_proxies = kProxies;
    config.seed = seed;
    owned.push_back(std::make_unique<client::Client>(config));
    clients.push_back(owned.back().get());
    generator.Feed(0, i, owned.back()->database());
  }

  const core::ExecutionParams params = TableThreeParams();
  std::vector<uint64_t> qids;
  std::vector<core::Query> queries;
  // Replay inputs: the truthful answer of every integer reading, per query.
  std::vector<std::vector<BitVector>> truthful(nq);
  // Replay readers of each lane's outbound topic, with their own offsets.
  std::vector<std::unique_ptr<transport::BusConsumer>> readers;
  std::vector<std::unique_ptr<engine::MidJoiner>> joiners;
  for (size_t k = 0; k < nq; ++k) {
    const core::Query query = BuildQuery(workload, workload.queries[k]);
    aggregator::QueryLaneOptions lane;
    for (auto& p : proxies) {
      p->EnsureLane(query.query_id);
      lane.source_topics.push_back(p->lane_out_topic(query.query_id));
      readers.push_back(std::make_unique<transport::BusConsumer>(
          bus, p->lane_out_topic(query.query_id)));
    }
    agg.RegisterQuery(query, params, lane);
    for (client::Client* c : clients) {
      c->Subscribe(query, params);
    }
    for (int v = 0; v < 100; ++v) {
      truthful[k].push_back(core::EncodeAnswer(query.answer_format, double(v)));
    }
    joiners.push_back(std::make_unique<engine::MidJoiner>(
        kProxies, agg_config.join_timeout_ms,
        [](uint64_t, std::vector<uint8_t>, int64_t) {}));
    qids.push_back(query.query_id);
    queries.push_back(query);
  }

  Checker checker(workload, generator);
  AnswerCounts counts;
  EpochArena arena;
  EpochArena split_arena;
  std::vector<std::vector<broker::ProduceView>> lanes(nq * kProxies);
  std::vector<broker::RecordView> views;
  std::vector<proxy::Proxy::DecodedShares> decoded(nq * kProxies);
  std::vector<crypto::ShareView> split_out(kProxies);
  Layer answer, receive, forward, drain, fire, epoch_layer;
  Layer execute, randomize, split, decode, join;
  uint64_t split_bytes = 0;
  uint64_t shares_produced = 0;

  for (int64_t e = 0; e <= epochs; ++e) {
    if (e > 0) {
      for (size_t i = 0; i < clients.size(); ++i) {
        generator.Feed(e, i, clients[i]->database());
      }
    }
    const int64_t now = EpochNow(e);
    std::vector<uint64_t> per_query(nq, 0);
    uint64_t consumed = 0;
    Measure(spans, "epoch", kInprocTid, e, epoch_layer, [&]() -> uint64_t {
      Measure(spans, "client.answer", kInprocTid, e, answer, [&] {
        return AnswerAll(clients, now, arena, lanes, per_query, qids);
      });
      Measure(spans, "proxy.receive", kInprocTid, e, receive, [&] {
        uint64_t n = 0;
        for (size_t k = 0; k < nq; ++k) {
          for (size_t j = 0; j < kProxies; ++j) {
            proxies[j]->Receive(qids[k], lanes[k * kProxies + j]);
            n += lanes[k * kProxies + j].size();
          }
        }
        return n;
      });
      arena.Reset();
      Measure(spans, "proxy.forward", kInprocTid, e, forward, [&] {
        uint64_t n = 0;
        for (auto& p : proxies) {
          n += p->ForwardLanes();
        }
        return n;
      });
      Measure(spans, "aggregator.drain", kInprocTid, e, drain, [&] {
        consumed = agg.Drain();
        return consumed;
      });
      Measure(spans, "aggregator.fire", kInprocTid, e, fire, [&] {
        agg.AdvanceWatermark(workload.WatermarkAfter(e));
        return static_cast<uint64_t>(fired.size());
      });
      return consumed;
    });
    checker.Add(fired);
    fired.clear();
    uint64_t answers = 0;
    for (const uint64_t n : per_query) {
      answers += n;
    }
    counts.attempted += answers;
    shares_produced += answers * kProxies;

    // Standalone replays of the layers the calls above hide.
    Measure(spans, "localdb.execute", kReplayTid, e, execute, [&] {
      const int64_t from = now - workload.window_epochs * kPeriodMs;
      for (client::Client* c : clients) {
        for (const core::Query& q : queries) {
          c->database().Execute(q.sql, from, now);
        }
      }
      return static_cast<uint64_t>(clients.size() * nq);
    });
    Measure(spans, "core.randomize", kReplayTid, e, randomize, [&] {
      for (size_t k = 0; k < nq; ++k) {
        const core::RandomizedResponse rr(params.randomization);
        Xoshiro256 rng(seed + k);
        for (uint64_t i = 0; i < per_query[k]; ++i) {
          rr.RandomizeAnswer(truthful[k][i % 100], rng);
        }
      }
      return answers;
    });
    Measure(spans, "crypto.split", kReplayTid, e, split, [&] {
      for (size_t k = 0; k < nq; ++k) {
        crypto::XorSplitter splitter(
            kProxies, crypto::ChaCha20Rng::FromSeed(seed, 1000 + k));
        const crypto::AnswerMessage message{qids[k], truthful[k][k]};
        for (uint64_t i = 0; i < per_query[k]; ++i) {
          splitter.SplitMessageInto(message, split_arena, split_out);
          for (const auto& v : split_out) {
            if (e > 0) {
              split_bytes += v.size;
            }
          }
          if (i % 1024 == 1023) {
            split_arena.Reset();
          }
        }
        split_arena.Reset();
      }
      return answers * kProxies;
    });
    for (size_t r = 0; r < readers.size(); ++r) {
      views.clear();
      while (readers[r]->PollInto(1u << 16, views) != 0) {
      }
      decoded[r].Clear();
      Measure(spans, "proxy.decode", kReplayTid, e, decode, [&] {
        proxy::Proxy::DecodeShares(views, decoded[r]);
        return static_cast<uint64_t>(views.size());
      });
    }
    Measure(spans, "engine.join", kReplayTid, e, join, [&] {
      uint64_t n = 0;
      for (size_t r = 0; r < readers.size(); ++r) {
        engine::MidJoiner& joiner = *joiners[r / kProxies];
        for (const auto& s : decoded[r].shares) {
          joiner.Add(s.message_id, s.payload, s.timestamp_ms, r % kProxies);
          ++n;
        }
      }
      return n;
    });
    // Prune remembered MIDs at the aggregator's watermark, as it does, so
    // the replayed table stays at its steady-state size.
    for (auto& joiner : joiners) {
      joiner->EvictStale(workload.WatermarkAfter(e));
    }
  }
  agg.Flush();
  checker.Add(fired);

  uint64_t retained = 0;
  for (const std::string& name : broker.TopicNames()) {
    retained += broker.GetTopic(name).slab_stats().allocated_bytes;
  }
  Put(out, "client.answer_ns", answer.NsPer(), "ns");
  Put(out, "client.answer_allocs", answer.AllocsPer(), "allocs");
  Put(out, "localdb.execute_ns", execute.NsPer(), "ns");
  Put(out, "localdb.execute_allocs", execute.AllocsPer(), "allocs");
  Put(out, "core.randomize_ns", randomize.NsPer(), "ns");
  Put(out, "crypto.split_ns", split.NsPer(), "ns");
  Put(out, "crypto.split_bytes",
      split.work == 0 ? 0.0 : double(split_bytes) / double(split.work), "B");
  Put(out, "proxy.receive_ns", receive.NsPer(), "ns");
  Put(out, "proxy.forward_ns", forward.NsPer(), "ns");
  Put(out, "proxy.forward_allocs", forward.AllocsPer(), "allocs");
  Put(out, "broker.retained_bytes_per_share",
      shares_produced == 0 ? 0.0 : double(retained) / double(shares_produced),
      "B");
  Put(out, "aggregator.drain_ns", drain.NsPer(), "ns");
  Put(out, "aggregator.drain_allocs", drain.AllocsPer(), "allocs");
  Put(out, "proxy.decode_ns", decode.NsPer(), "ns");
  Put(out, "engine.join_ns", join.NsPer(), "ns");
  Put(out, "aggregator.fire_ns", fire.NsPer(), "ns");
  Put(out, "aggregator.fire_allocs", fire.AllocsPer(), "allocs");
  Put(out, "ledger.shares_per_s",
      epoch_layer.ns == 0 ? 0.0 : double(epoch_layer.work) * 1e9 /
                                      double(epoch_layer.ns),
      "shares/s");
  return Finish(checker, epochs, counts);
}

PartOutcome RunTcpLedger(const Workload& workload, uint64_t seed,
                         Generator& generator, int64_t epochs,
                         SpanRecorder& spans, MetricList& out) {
  const size_t nq = workload.queries.size();
  const CpuScope cpus(kEndToEndCpus);  // before the daemons start threads
  LoopbackDaemons daemons(workload.clients);
  deploy::FleetDriver fleet(daemons.FleetConfig(workload.clients, seed));
  std::vector<client::Client*> clients;
  for (size_t i = 0; i < workload.clients; ++i) {
    clients.push_back(&fleet.client(i));
    generator.Feed(0, i, clients.back()->database());
  }
  // The fleet driver handles submission; the ledger drives the epochs over
  // its own connections, so each wire call gets its own span.
  std::vector<uint64_t> qids;
  for (const QueryDef& def : workload.queries) {
    fleet.SubmitQuery(BuildQuery(workload, def), TableThreeParams());
    qids.push_back(def.qid);
  }
  metrics::Registry registry;
  transport::TransportCounters counters;
  counters.bytes_out = &registry.GetCounter("bytes_out", "");
  counters.frames_out = &registry.GetCounter("frames_out", "");
  counters.reconnects = &registry.GetCounter("reconnects", "");
  auto dial = [&](const deploy::Endpoint& endpoint) {
    transport::TcpBusClientConfig config;
    config.host = endpoint.host;
    config.port = endpoint.port;
    config.counters = counters;
    return std::make_unique<transport::TcpBusClient>(config);
  };
  std::vector<std::unique_ptr<transport::TcpBusClient>> proxy_buses;
  for (const deploy::Endpoint& endpoint : daemons.proxies()) {
    proxy_buses.push_back(dial(endpoint));
  }
  std::unique_ptr<transport::TcpBusClient> agg_bus = dial(daemons.aggregator());
  std::vector<std::string> lane_topics;
  for (const uint64_t qid : qids) {
    for (size_t j = 0; j < kProxies; ++j) {
      lane_topics.push_back("proxy" + std::to_string(j) + ".q" +
                            std::to_string(qid) + ".in");
    }
  }

  Checker checker(workload, generator);
  AnswerCounts counts;
  EpochArena arena;
  std::vector<std::vector<broker::ProduceView>> lanes(nq * kProxies);
  Layer answer, produce, forward_rpc, drain_rpc, fire_rpc, epoch_layer;
  uint64_t produce_bytes = 0;
  const auto frames = [&] {
    return SumFamily(FleetMetricsText(fleet),
                     "privapprox_transport_frames_in_total");
  };
  const double frames_before = frames();

  for (int64_t e = 0; e <= epochs; ++e) {
    if (e > 0) {
      for (size_t i = 0; i < clients.size(); ++i) {
        generator.Feed(e, i, clients[i]->database());
      }
    }
    const int64_t now = EpochNow(e);
    std::vector<uint64_t> per_query(nq, 0);
    uint64_t answers = 0;
    std::vector<uint8_t> results;
    Measure(spans, "epoch", kTcpTid, e, epoch_layer, [&]() -> uint64_t {
      Measure(spans, "client.answer", kTcpTid, e, answer, [&] {
        answers = AnswerAll(clients, now, arena, lanes, per_query, qids);
        return answers;
      });
      const uint64_t bytes_before = counters.bytes_out->Value();
      Measure(spans, "transport.produce", kTcpTid, e, produce, [&] {
        uint64_t n = 0;
        for (size_t l = 0; l < lanes.size(); ++l) {
          const auto& batch = lanes[l];
          for (size_t b = 0; b < batch.size(); b += kProduceChunk) {
            const size_t len = std::min(kProduceChunk, batch.size() - b);
            proxy_buses[l % kProxies]->Produce(
                lane_topics[l],
                std::span<const broker::ProduceView>(&batch[b], len));
          }
          n += batch.size();
        }
        return n;
      });
      if (e > 0) {
        produce_bytes += counters.bytes_out->Value() - bytes_before;
      }
      arena.Reset();
      Measure(spans, "deploy.forward_rpc", kTcpTid, e, forward_rpc, [&] {
        uint64_t n = 0;
        for (auto& bus : proxy_buses) {
          const std::vector<uint8_t> reply = bus->Control("forward_lanes");
          transport::WireReader reader(reply);
          n += reader.TakeU64();
        }
        return n;
      });
      uint64_t consumed = 0;
      Measure(spans, "deploy.drain_rpc", kTcpTid, e, drain_rpc, [&] {
        const std::vector<uint8_t> reply = agg_bus->Control("drain");
        transport::WireReader reader(reply);
        consumed = reader.TakeU64();
        return consumed;
      });
      Measure(spans, "deploy.fire_rpc", kTcpTid, e, fire_rpc, [&] {
        std::vector<uint8_t> payload;
        transport::PutU64(static_cast<uint64_t>(workload.WatermarkAfter(e)),
                          payload);
        agg_bus->Control("advance_watermark", payload);
        results = agg_bus->Control("take_results");
        return uint64_t{1};
      });
      return consumed;
    });
    checker.Add(deploy::DeserializeResults(results));
    counts.attempted += answers;
  }
  const double frames_after = frames();
  agg_bus->Control("flush");
  checker.Add(deploy::DeserializeResults(agg_bus->Control("take_results")));

  const std::string text = FleetMetricsText(fleet);
  Put(out, "transport.produce_ns", produce.NsPer(), "ns");
  Put(out, "transport.bytes_per_share",
      produce.work == 0 ? 0.0 : double(produce_bytes) / double(produce.work),
      "B");
  Put(out, "transport.frames_per_epoch",
      (frames_after - frames_before) / double(epochs + 1), "count");
  Put(out, "deploy.forward_rpc_ns", forward_rpc.NsPer(), "ns");
  Put(out, "deploy.drain_rpc_ns", drain_rpc.NsPer(), "ns");
  Put(out, "transport.protocol_errors",
      SumFamily(text, "privapprox_transport_protocol_errors_total"), "count");
  Put(out, "transport.reconnects",
      SumFamily(text, "privapprox_transport_reconnects_total") +
          double(counters.reconnects->Value()),
      "count");
  Put(out, "ledger.tcp_shares_per_s",
      epoch_layer.ns == 0 ? 0.0 : double(epoch_layer.work) * 1e9 /
                                      double(epoch_layer.ns),
      "shares/s");
  return Finish(checker, epochs, counts);
}

}  // namespace perfbench
