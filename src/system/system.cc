#include "system/system.h"

#include "common/channel.h"
#include "common/simd_dispatch.h"
#include "core/query_wire.h"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <thread>

namespace privapprox::system {

namespace {

// privapprox_stage_ns for one stage. Each stage execution is one
// observation and, when tracing is on, one timeline span.
metrics::Histogram& StageHistogram(metrics::Registry& registry,
                                   const char* stage) {
  return registry.GetHistogram(
      "privapprox_stage_ns",
      "Stage latency in nanoseconds (one observation per stage execution)",
      {{"stage", stage}});
}

// Clients per answer shard (PipelineOptions::shard_size, 0 = 1024).
size_t ShardSize(const PipelineOptions& pipeline) {
  return pipeline.shard_size != 0 ? pipeline.shard_size : 1024;
}

}  // namespace

PrivApproxSystem::PrivApproxSystem(SystemConfig config)
    : config_(std::move(config)),
      timeline_(config_.metrics.timeline),
      epochs_(registry_.GetCounter("privapprox_epochs_total",
                                   "Answering epochs run")),
      shares_forwarded_(registry_.GetCounter(
          "privapprox_shares_forwarded_total",
          "Shares moved proxy inbound -> outbound")),
      shares_consumed_(registry_.GetCounter(
          "privapprox_shares_consumed_total",
          "Records consumed by the aggregator (including malformed)")),
      stage_ns_{StageHistogram(registry_, "answer_shard"),
                StageHistogram(registry_, "proxy_forward"),
                StageHistogram(registry_, "agg_consume"),
                StageHistogram(registry_, "epoch")},
      budget_manager_(core::BudgetManagerConfig{
          config_.budget.max_epsilon_zk, config_.budget.downsample_to_fit,
          config_.budget.min_sampling_fraction}),
      historical_rng_(config_.seed ^ 0xA5A5A5A5ULL) {
  if (config_.num_clients == 0) {
    throw std::invalid_argument("PrivApproxSystem: need >= 1 client");
  }
  if (config_.num_proxies < 2) {
    throw std::invalid_argument("PrivApproxSystem: need >= 2 proxies");
  }

  // Durability must precede every topic: the proxies below create theirs in
  // their constructors, and a recovered topic must replay before anything
  // attaches to it.
  if (!config_.broker.data_dir.empty()) {
    broker_.EnableDurability(
        {config_.broker.data_dir, config_.broker.log});
    broker_.RecoverTopics();
  }

  // The crypto hot path's SIMD tier, decided once per process
  // (PRIVAPPROX_SIMD override; common/simd_dispatch.h) — surfaced so bench
  // artifacts and scrapes record which kernels produced the numbers.
  registry_
      .GetGauge("privapprox_simd_isa",
                "Active SIMD dispatch tier for the ChaCha20/XOR hot path "
                "(1 = the labeled ISA is active)",
                {{"isa", simd::IsaName(simd::ActiveIsa())}})
      .Set(1);

  const size_t threads =
      config_.pipeline.num_worker_threads != 0
          ? config_.pipeline.num_worker_threads
          : std::max<size_t>(1, std::thread::hardware_concurrency());
  pool_ = std::make_unique<ThreadPool>(threads);

  proxies_.reserve(config_.num_proxies);
  for (size_t i = 0; i < config_.num_proxies; ++i) {
    proxy::ProxyConfig proxy_config;
    proxy_config.proxy_index = i;
    proxy_config.num_partitions = 4;
    proxy_config.registry = &registry_;
    proxies_.push_back(
        std::make_unique<proxy::Proxy>(proxy_config, bus_));
  }

  if (config_.fault.has_value()) {
    const fault::FaultPlan& plan = *config_.fault;
    plan.Validate();
    // Standbys exist only for plans that can time a forward out — an
    // always-reachable plan must not alter the broker topic set.
    const bool standby = plan.standby_proxies && plan.CanTimeOut();
    if (standby) {
      standby_proxies_.reserve(config_.num_proxies);
      for (size_t i = 0; i < config_.num_proxies; ++i) {
        proxy::ProxyConfig standby_config;
        standby_config.proxy_index = i;
        standby_config.num_partitions = 4;
        standby_config.topic_prefix = "standby" + std::to_string(i);
        // Lane outbound topics are the primary's, so failover shares land
        // in the per-query streams the aggregator joins.
        standby_config.out_prefix = "proxy" + std::to_string(i);
        standby_config.registry = &registry_;
        standby_proxies_.push_back(
            std::make_unique<proxy::Proxy>(standby_config, bus_));
      }
    }
    injector_ =
        std::make_unique<fault::FaultInjector>(plan, standby, registry_);
  }

  clients_ = std::make_unique<ClientFleet>(
      config_.num_clients, config_.num_proxies, config_.seed,
      config_.invert_answers, registry_);

  // The aggregator coordinator exists from construction; queries add lanes
  // to it as they are submitted.
  aggregator::AggregatorConfig agg_config;
  agg_config.num_proxies = config_.num_proxies;
  agg_config.population = clients_->size();
  agg_config.confidence = config_.confidence;
  agg_config.answers_inverted = config_.invert_answers;
  agg_config.num_shards = config_.aggregator.num_shards != 0
                              ? config_.aggregator.num_shards
                              : pool_->num_threads();
  agg_config.pool = pool_.get();
  agg_config.track_fault_losses = injector_ != nullptr;
  agg_config.registry = &registry_;
  aggregator_ = std::make_unique<aggregator::Aggregator>(
      agg_config, bus_,
      [this](const aggregator::WindowedResult& result) {
        results_.push_back(result);
      });
  if (config_.historical.enabled) {
    if (!config_.historical.dir.empty()) {
      historical_log_ = std::make_unique<storage::PartitionLog>(
          config_.historical.dir, storage::PartitionLogOptions{});
    }
    aggregator_->set_answer_tap(
        [this](int64_t timestamp_ms, const BitVector& answer) {
          if (historical_log_ != nullptr) {
            storage::AppendAnswer(*historical_log_, timestamp_ms, answer);
          } else {
            historical_store_.Append(timestamp_ms, answer);
          }
        });
  }

  broker::AddBrokerCollector(registry_, broker_);

  for (const SystemConfig::QuerySpec& spec : config_.queries) {
    SubmitQuery(spec.query, spec.params);
  }
}

PrivApproxSystem::~PrivApproxSystem() = default;

core::ExecutionParams PrivApproxSystem::SubmitQuery(
    const core::Query& query, const core::QueryBudget& budget,
    double expected_yes_fraction) {
  const core::BudgetInitializer initializer;
  const core::ExecutionParams params = initializer.Convert(
      budget,
      core::PopulationInfo{clients_->size(), expected_yes_fraction});
  return SubmitQuery(query, params);
}

core::ExecutionParams PrivApproxSystem::SubmitQuery(
    const core::Query& query, const core::ExecutionParams& params) {
  core::ValidateAnnouncement(query, params);
  if (active_.count(query.query_id) != 0) {
    throw std::invalid_argument(
        "PrivApproxSystem: query id already submitted");
  }

  // Admission: the budget manager may down-sample `s` to fit the fleet cap
  // (or refuse the query outright). Everything downstream — announcement,
  // estimator, ledger — uses the admitted parameters.
  const core::BudgetAdmission admission =
      budget_manager_.Admit(query.query_id, params);
  try {
    // Per-(query, proxy) lanes on every primary and standby, plus the
    // aggregator lane consuming them.
    for (auto& proxy : proxies_) {
      proxy->EnsureLane(query.query_id);
    }
    for (auto& standby : standby_proxies_) {
      standby->EnsureLane(query.query_id);
    }
    aggregator::QueryLaneOptions lane;
    lane.source_topics.reserve(proxies_.size());
    for (auto& proxy : proxies_) {
      lane.source_topics.push_back(proxy->lane_out_topic(query.query_id));
    }
    const metrics::Labels query_labels{
        {"query", std::to_string(query.query_id)}};
    ActiveQuery active{
        query, admission.params,
        registry_.GetCounter("privapprox_query_participants_total",
                             "Clients that passed this query's sampling "
                             "coin, summed over epochs",
                             query_labels),
        registry_.GetCounter("privapprox_query_shares_sent_total",
                             "Client -> proxy share messages for this query",
                             query_labels)};
    aggregator_->RegisterQuery(query, admission.params, std::move(lane));

    // Submission phase (§3.1), last so that a failure above leaves no
    // client subscribed: the announcement travels aggregator -> proxy
    // query topics -> clients as opaque bytes; every client re-parses and
    // re-verifies it locally.
    DistributeAnnouncement(query, admission.params);
    active_.emplace(query.query_id, std::move(active));
  } catch (...) {
    budget_manager_.Release(query.query_id);
    throw;
  }
  return admission.params;
}

core::ExecutionParams PrivApproxSystem::UpdateParams(
    uint64_t query_id, const core::ExecutionParams& params) {
  ActiveQuery& active = GetActive(query_id, "UpdateParams");
  params.Validate();
  // Re-price atomically: on refusal the previous registration (and the
  // parameters every client runs with) stays untouched.
  const core::BudgetAdmission admission =
      budget_manager_.Update(query_id, params);
  DistributeAnnouncement(active.query, admission.params);
  aggregator_->UpdateParams(query_id, admission.params);
  active.params = admission.params;
  return admission.params;
}

std::vector<uint64_t> PrivApproxSystem::query_ids() const {
  std::vector<uint64_t> ids;
  ids.reserve(active_.size());
  for (const auto& [qid, active] : active_) {
    ids.push_back(qid);
  }
  return ids;
}

const core::ExecutionParams& PrivApproxSystem::query_params(
    uint64_t query_id) const {
  const auto it = active_.find(query_id);
  if (it == active_.end()) {
    throw std::logic_error(
        "PrivApproxSystem::query_params: unknown query id");
  }
  return it->second.params;
}

PrivApproxSystem::ActiveQuery& PrivApproxSystem::GetActive(
    uint64_t query_id, const char* caller) {
  const auto it = active_.find(query_id);
  if (it == active_.end()) {
    throw std::logic_error(std::string("PrivApproxSystem::") + caller +
                           ": unknown query id");
  }
  return it->second;
}

const PrivApproxSystem::ActiveQuery& PrivApproxSystem::SingleActive(
    const char* caller) const {
  if (active_.empty()) {
    throw std::logic_error(std::string("PrivApproxSystem::") + caller +
                           ": no active query");
  }
  if (active_.size() != 1) {
    throw std::logic_error(std::string("PrivApproxSystem::") + caller +
                           ": ambiguous with multiple queries; pass a "
                           "query id");
  }
  return active_.begin()->second;
}

void PrivApproxSystem::DistributeAnnouncement(
    const core::Query& query, const core::ExecutionParams& params) {
  const std::vector<uint8_t> announcement =
      core::SerializeAnnouncement(core::QueryAnnouncement{query, params});
  for (auto& proxy : proxies_) {
    proxy->AnnounceQuery(announcement, /*timestamp_ms=*/0);
    proxy->ForwardQueries();
  }
  for (size_t j = 0; j < proxies_.size(); ++j) {
    clients_->DeliverAnnouncement(j, bus_, proxies_[j]->query_out_topic());
  }
}

EpochStats PrivApproxSystem::RunEpoch(int64_t now_ms) {
  if (active_.empty()) {
    throw std::logic_error("PrivApproxSystem::RunEpoch: no query submitted");
  }
  const uint64_t participants_before = clients_->participants();
  const uint64_t forwarded_before = shares_forwarded_.Value();
  const uint64_t consumed_before = shares_consumed_.Value();
  const uint64_t malformed_before = aggregator_->malformed_dropped();
  const fault::FaultTotals fault_before =
      injector_ != nullptr ? injector_->totals() : fault::FaultTotals{};
  {
    const metrics::ScopedTimer timer(stage_ns_.epoch);
    const metrics::EpochTimeline::Span span(timeline_, "epoch");
    if (injector_ != nullptr) {
      ReplayDeferredShares();
      injector_->CountCrashes(epoch_index_, proxies_.size());
    }
    if (config_.pipeline.mode == EpochPipelineMode::kStreaming) {
      RunEpochStreaming(now_ms);
    } else {
      RunEpochBarrier(now_ms);
    }
    ReleaseConsumed();
  }
  if (injector_ != nullptr) {
    // Hand the epoch's unjoinable (query, MID) pairs to each query's lane
    // so every window covering now_ms widens its error bound (paper Eq. 2
    // with the lost answers removed from the effective sample). The drain
    // is sorted by (QID, MID), so one pass groups per lane.
    const std::vector<std::pair<uint64_t, uint64_t>> lost =
        injector_->TakeLostMids();
    std::vector<uint64_t> mids;
    for (size_t i = 0; i < lost.size();) {
      const uint64_t qid = lost[i].first;
      mids.clear();
      for (; i < lost.size() && lost[i].first == qid; ++i) {
        mids.push_back(lost[i].second);
      }
      aggregator_->NoteFaultLostMids(qid, mids, now_ms);
    }
  }
  ++epoch_index_;
  epochs_.Increment();
  EpochStats stats;
  stats.participants =
      static_cast<size_t>(clients_->participants() - participants_before);
  stats.shares_sent = stats.participants * proxies_.size();
  stats.shares_forwarded = shares_forwarded_.Value() - forwarded_before;
  stats.shares_consumed = shares_consumed_.Value() - consumed_before;
  stats.malformed_dropped = aggregator_->malformed_dropped() - malformed_before;
  if (injector_ != nullptr) {
    const fault::FaultTotals after = injector_->totals();
    stats.fault_shares_dropped = after.dropped - fault_before.dropped;
    stats.fault_shares_corrupted = after.corrupted - fault_before.corrupted;
    stats.fault_shares_duplicated = after.duplicated - fault_before.duplicated;
    stats.fault_shares_delayed = after.delayed - fault_before.delayed;
    stats.fault_forward_timeouts = after.timeouts - fault_before.timeouts;
    stats.fault_proxy_crashes = after.crashes - fault_before.crashes;
    stats.fault_lost_mids = after.lost - fault_before.lost;
    stats.recovery_retries = after.retries - fault_before.retries;
    stats.recovery_failovers = after.failovers - fault_before.failovers;
    stats.recovery_late_delivered = after.late - fault_before.late;
  }
  return stats;
}

void PrivApproxSystem::ReleaseConsumed() {
  const auto release = [this](const std::string& name,
                              const std::vector<uint64_t>& offsets) {
    broker::Topic& topic = broker_.GetTopic(name);
    for (size_t p = 0; p < offsets.size(); ++p) {
      topic.Release(p, offsets[p]);
    }
  };
  for (const auto& [qid, active] : active_) {
    for (const auto* tier : {&proxies_, &standby_proxies_}) {
      for (const auto& proxy : *tier) {
        release(proxy->lane_in_topic(qid), proxy->LaneInOffsets(qid));
      }
    }
  }
  for (const auto& [topic, offsets] : aggregator_->SourceOffsets()) {
    release(topic, offsets);
  }
}

// Delivers the shares the degraded link held back, at the start of the next
// epoch: they land at the head of each lane's inbound topic (before this
// epoch's shards) with their original event time, so both pipeline modes
// forward them first and the join sees them in the same order. The deferred
// buffer is sorted by (proxy, QID, MID), so one pass batches per lane; each
// record is a QID-tagged frame whose tag is stripped back off here — lane
// topics carry plain <MID, payload> records.
void PrivApproxSystem::ReplayDeferredShares() {
  const std::vector<fault::DeferredShare> deferred = injector_->TakeDeferred();
  std::vector<broker::ProduceView> batch;
  for (size_t i = 0; i < deferred.size();) {
    const size_t proxy = deferred[i].proxy;
    const uint64_t qid = deferred[i].query_id;
    batch.clear();
    for (; i < deferred.size() && deferred[i].proxy == proxy &&
           deferred[i].query_id == qid;
         ++i) {
      const core::TaggedShareView tagged =
          core::ParseTaggedShare(deferred[i].record);
      batch.push_back(broker::ProduceView{deferred[i].message_id,
                                          tagged.lane_record,
                                          deferred[i].timestamp_ms});
    }
    proxies_[proxy]->Receive(qid, batch);
  }
}

void PrivApproxSystem::CountAnswered(std::span<const uint64_t> participants) {
  size_t k = 0;
  for (auto& [qid, active] : active_) {
    active.participants_total.Increment(participants[k]);
    active.shares_sent_total.Increment(participants[k] * proxies_.size());
    ++k;
  }
}

void PrivApproxSystem::RunEpochBarrier(int64_t now_ms) {
  const size_t num_clients = clients_->size();
  const size_t num_proxies = proxies_.size();
  const std::vector<uint64_t> qids = query_ids();
  const size_t shard_size = ShardSize(config_.pipeline);
  const size_t num_shards = (num_clients + shard_size - 1) / shard_size;

  // Phase 1 (parallel answering): the fleet answers fixed client shards on
  // the pool — the same shards, through the same routine, as the streaming
  // answer stage. Each shard's arena stays alive until phase 2 has copied
  // its records into broker slabs.
  std::vector<AnsweredRange> shards(num_shards);
  std::vector<ArenaRef> arenas(num_shards);
  {
    const metrics::ScopedTimer timer(stage_ns_.answer_shard);
    const metrics::EpochTimeline::Span span(timeline_, "barrier_answer");
    pool_->ParallelFor(num_shards, [&](size_t first, size_t last) {
      for (size_t s = first; s < last; ++s) {
        const size_t begin = s * shard_size;
        arenas[s] = arena_pool_.Acquire();
        shards[s] = clients_->Answer(
            begin, std::min(begin + shard_size, num_clients), now_ms, qids,
            *arenas[s], injector_.get(), epoch_index_);
        CountAnswered(shards[s].participants);
      }
    });
  }

  // Phase 2 (ordered merge): every lane receives the shards in shard order
  // — exactly the append order a sequential loop over clients would
  // produce, so topic contents are byte-identical for any worker count.
  {
    const metrics::EpochTimeline::Span span(timeline_, "barrier_merge");
    for (const AnsweredRange& shard : shards) {
      for (size_t j = 0; j < num_proxies; ++j) {
        for (size_t k = 0; k < qids.size(); ++k) {
          proxies_[j]->Receive(qids[k], shard.lanes[j][k].records);
          if (!standby_proxies_.empty()) {
            standby_proxies_[j]->Receive(qids[k], shard.lanes[j][k].standby);
          }
        }
      }
    }
    arenas.clear();  // appends done: recycle the encode arenas
  }

  // Phase 3 (parallel forwarding): each proxy moves its own lanes' inbound
  // topics to their outbound topics — disjoint state, one task per proxy.
  {
    const metrics::ScopedTimer timer(stage_ns_.proxy_forward);
    const metrics::EpochTimeline::Span span(timeline_, "barrier_forward");
    pool_->ParallelFor(num_proxies, [&](size_t begin, size_t end) {
      for (size_t j = begin; j < end; ++j) {
        shares_forwarded_.Increment(proxies_[j]->ForwardLanes());
        // Standby j shares primary j's outbound lane topics — forwarding it
        // from the same task keeps the append interleave deterministic.
        if (!standby_proxies_.empty()) {
          shares_forwarded_.Increment(standby_proxies_[j]->ForwardLanes());
        }
      }
    });
  }

  // Phase 4: drain every lane (parallel per-source decode + sequential join
  // inside, lanes in ascending-QID order).
  const metrics::ScopedTimer timer(stage_ns_.agg_consume);
  const metrics::EpochTimeline::Span span(timeline_, "barrier_drain");
  shares_consumed_.Increment(aggregator_->Drain());
}

namespace {

// One contiguous client range to answer, tagged with its position in the
// epoch's shard sequence.
struct ShardTask {
  uint64_t seq = 0;
  size_t begin = 0;
  size_t end = 0;
};

// One shard's shares for one proxy across every query lane (indexed like
// the system's ascending QID list), still tagged with the shard sequence so
// the proxy stage can restore client-id append order. The batch shares
// ownership of the arena holding the encoded share records: each view
// points into it, and when the last proxy's batch for a shard is dropped
// (after its records were copied into broker slabs) the arena resets and
// returns to the pool — so backpressure from the bounded channels also
// bounds the number of live arenas.
struct TaggedBatch {
  uint64_t seq = 0;
  std::vector<LaneRecords> lanes;
  ArenaRef arena;
};

// "Proxy `source` forwarded shard `seq` on query `query_id`'s lane; consume
// exactly these counts per outbound partition."
struct ShardNotice {
  uint64_t query_id = 0;
  size_t source = 0;
  uint64_t seq = 0;
  std::vector<uint32_t> partition_counts;
};

}  // namespace

// The streaming epoch: the same work as the barrier path, reshaped into
// producer→transform→consumer stages over bounded channels.
//
//   [main] --ShardTask--> [answer xW] --TaggedBatch--> [proxy j x1] (n of
//   them) --ShardNotice--> [aggregator x1]
//
// A shard's batch reaches its proxies the moment its clients finish
// answering; each proxy appends + forwards every query lane while later
// shards are still being answered; the aggregator decodes and joins
// forwarded batches as notices arrive. Determinism: per-proxy reorder
// buffers replay batches in shard order (so lane topic logs stay in
// client-id order, identical to the barrier merge), and each aggregator
// lane's reorder buffer feeds its MID join in (shard, source) order (see
// Aggregator::ConsumeShardBatch).
void PrivApproxSystem::RunEpochStreaming(int64_t now_ms) {
  const size_t num_clients = clients_->size();
  const size_t num_proxies = proxies_.size();
  const std::vector<uint64_t> qids = query_ids();
  const size_t num_queries = qids.size();
  const size_t shard_size = ShardSize(config_.pipeline);
  const size_t depth = std::max<size_t>(1, config_.pipeline.depth);
  const size_t answer_workers = pool_->num_threads();

  Channel<ShardTask> tasks(depth);
  std::vector<std::unique_ptr<Channel<TaggedBatch>>> to_proxy;
  to_proxy.reserve(num_proxies);
  for (size_t j = 0; j < num_proxies; ++j) {
    to_proxy.push_back(std::make_unique<Channel<TaggedBatch>>(depth));
  }
  Channel<ShardNotice> notices(depth * num_proxies * num_queries);
  // Backpressure visibility: high-watermark of each channel's depth.
  const auto depth_gauge = [this](const std::string& channel) {
    return &registry_.GetGauge("privapprox_channel_depth_hwm",
                               "Channel depth high-watermark (shard batches)",
                               {{"channel", channel}});
  };
  tasks.set_depth_gauge(depth_gauge("tasks"));
  for (size_t j = 0; j < num_proxies; ++j) {
    to_proxy[j]->set_depth_gauge(depth_gauge("to_proxy" + std::to_string(j)));
  }
  notices.set_depth_gauge(depth_gauge("notices"));

  // Consumer stage: single worker — each lane's join and window state are
  // sequential by design, exactly as in the barrier drain.
  Stage<ShardNotice> aggregator_stage(
      notices, 1, [&](ShardNotice&& notice) {
        const metrics::ScopedTimer timer(stage_ns_.agg_consume);
        const metrics::EpochTimeline::Span span(timeline_, "agg_consume");
        shares_consumed_.Increment(aggregator_->ConsumeShardBatch(
            notice.query_id, notice.source, notice.seq,
            notice.partition_counts));
      });

  // Per-proxy forward stages: one worker each (a proxy owns its lane
  // consumer offsets). Answer workers finish shards out of order, so each
  // stage reorders to shard order before appending — keeping every lane's
  // inbound topic in client-id order, byte-identical to the barrier merge.
  // The reorder map is small: tasks are handed out in shard order, so at
  // most ~(answer workers + channel depth) shards are in flight.
  std::vector<std::unique_ptr<Stage<TaggedBatch>>> proxy_stages;
  proxy_stages.reserve(num_proxies);
  for (size_t j = 0; j < num_proxies; ++j) {
    auto reorder = std::make_shared<std::map<uint64_t, TaggedBatch>>();
    auto next_seq = std::make_shared<uint64_t>(0);
    proxy_stages.push_back(std::make_unique<Stage<TaggedBatch>>(
        *to_proxy[j], 1, [&, j, reorder, next_seq](TaggedBatch&& batch) {
          (*reorder)[batch.seq] = std::move(batch);
          for (auto it = reorder->find(*next_seq); it != reorder->end();
               it = reorder->find(*next_seq)) {
            TaggedBatch head = std::move(it->second);
            reorder->erase(it);
            const metrics::ScopedTimer timer(stage_ns_.proxy_forward);
            const metrics::EpochTimeline::Span span(timeline_,
                                                    "proxy_forward");
            for (size_t k = 0; k < num_queries; ++k) {
              std::vector<uint32_t> counts =
                  proxies_[j]->ReceiveAndForwardShard(qids[k],
                                                      head.lanes[k].records);
              if (!standby_proxies_.empty()) {
                // The standby appends to the same lane outbound topic;
                // merging the per-partition counts keeps the aggregator's
                // promised-read contract exact.
                const std::vector<uint32_t> standby_counts =
                    standby_proxies_[j]->ReceiveAndForwardShard(
                        qids[k], head.lanes[k].standby);
                for (size_t p = 0; p < counts.size(); ++p) {
                  counts[p] += standby_counts[p];
                }
              }
              shares_forwarded_.Increment(
                  std::accumulate(counts.begin(), counts.end(), uint64_t{0}));
              notices.Push(ShardNotice{qids[k], j, *next_seq,
                                       std::move(counts)});
            }
            // `head` (and with it this proxy's arena reference) dies here —
            // the records are now in the broker's slabs.
            ++*next_seq;
          }
        }));
  }

  // Producer stage: workers answer one shard's clients across every
  // subscribed query and ship the resulting per-proxy batches downstream
  // immediately. Every random decision draws from per-client RNG state, so
  // which worker answers a shard cannot change any byte. Empty batches are
  // shipped too — the shard sequence must be gapless for the reorder
  // buffers to advance.
  Stage<ShardTask> answer_stage(tasks, answer_workers, [&](ShardTask&& task) {
    const metrics::ScopedTimer timer(stage_ns_.answer_shard);
    const metrics::EpochTimeline::Span span(timeline_, "answer_shard");
    ArenaRef arena = arena_pool_.Acquire();
    AnsweredRange answered =
        clients_->Answer(task.begin, task.end, now_ms, qids, *arena,
                         injector_.get(), epoch_index_);
    CountAnswered(answered.participants);
    for (size_t j = 0; j < num_proxies; ++j) {
      // Each batch carries a reference to the shard's arena; the arena
      // recycles once every proxy has slab-copied its batch.
      to_proxy[j]->Push(
          TaggedBatch{task.seq, std::move(answered.lanes[j]), arena});
    }
  });

  // Feed the pipeline, then shut it down stage by stage: close input, join
  // stage, close the next channel. Join errors are collected so the
  // shutdown sequence always completes (a failed stage drains its input,
  // so nothing upstream stays blocked).
  std::exception_ptr error;
  auto join_stage = [&error](auto& stage) {
    try {
      stage.Join();
    } catch (...) {
      if (error == nullptr) {
        error = std::current_exception();
      }
    }
  };
  uint64_t seq = 0;
  for (size_t begin = 0; begin < num_clients; begin += shard_size, ++seq) {
    tasks.Push(ShardTask{seq, begin, std::min(begin + shard_size, num_clients)});
  }
  tasks.Close();
  join_stage(answer_stage);
  for (auto& channel : to_proxy) {
    channel->Close();
  }
  for (auto& stage : proxy_stages) {
    join_stage(*stage);
  }
  notices.Close();
  join_stage(aggregator_stage);
  if (error != nullptr) {
    try {
      aggregator_->FinishStream();  // reset reorder state; expected to throw
    } catch (...) {
    }
    std::rethrow_exception(error);
  }
  aggregator_->FinishStream();
}

void PrivApproxSystem::AdvanceWatermark(int64_t watermark_ms) {
  aggregator_->AdvanceWatermark(watermark_ms);
}

void PrivApproxSystem::Flush() {
  aggregator_->Flush();
}

std::vector<aggregator::WindowedResult> PrivApproxSystem::TakeResults() {
  std::vector<aggregator::WindowedResult> out = std::move(results_);
  results_.clear();
  return out;
}

uint64_t PrivApproxSystem::ClientToProxyBytes() const {
  uint64_t bytes = 0;
  for (const auto& proxy : proxies_) {
    for (const auto& [qid, active] : active_) {
      bytes += broker_.GetTopic(proxy->lane_in_topic(qid)).metrics().bytes_in;
    }
  }
  return bytes;
}

core::QueryResult PrivApproxSystem::RunHistorical(
    int64_t from_ms, int64_t to_ms,
    const aggregator::BatchQueryBudget& budget) {
  if (!config_.historical.enabled) {
    throw std::logic_error(
        "PrivApproxSystem::RunHistorical: historical store disabled");
  }
  // The historical store tees joined answers without a QID partition, so
  // batch analytics only has well-defined semantics for a single query.
  const ActiveQuery& active = SingleActive("RunHistorical");
  if (historical_log_ != nullptr) {
    // Durable path: replay the requested range from disk.
    const aggregator::ResponseStore store =
        storage::LoadAnswers(*historical_log_, from_ms, to_ms);
    const aggregator::HistoricalAnalytics analytics(
        store, active.params, clients_->size(), config_.confidence);
    return analytics.Run(from_ms, to_ms, budget, historical_rng_,
                         active.query.answer_format.num_buckets());
  }
  const aggregator::HistoricalAnalytics analytics(
      historical_store_, active.params, clients_->size(), config_.confidence);
  return analytics.Run(from_ms, to_ms, budget, historical_rng_,
                       active.query.answer_format.num_buckets());
}

}  // namespace privapprox::system
