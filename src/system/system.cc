#include "system/system.h"

#include "common/simd_dispatch.h"
#include "core/query_wire.h"

#include <algorithm>
#include <memory>
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
      budget_manager_(config_.budget),
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
  arenas_.resize(std::min(config_.num_clients, threads));
  for (auto& arena : arenas_) {
    arena = std::make_unique<EpochArena>();
  }

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
        [this](std::span<const std::pair<int64_t, BitVector>> answers) {
          if (historical_log_ != nullptr) {
            storage::AppendAnswers(*historical_log_, answers);
          } else {
            for (const auto& [timestamp_ms, answer] : answers) {
              historical_store_.Append(timestamp_ms, answer);
            }
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
    const size_t num_clients = clients_->size();
    const std::vector<uint64_t> qids = query_ids();
    const size_t num_ranges = arenas_.size();

    // Answer: one contiguous client range per worker, each encoded into its
    // own arena. Every random decision draws from per-client RNG state, so
    // how the fleet is split cannot change a byte.
    std::vector<AnsweredRange> ranges(num_ranges);
    pool_->ParallelFor(num_ranges, [&](size_t first, size_t last) {
      for (size_t r = first; r < last; ++r) {
        const metrics::ScopedTimer range_timer(stage_ns_.answer_shard);
        const metrics::EpochTimeline::Span range_span(timeline_,
                                                      "answer_shard");
        EpochArena& arena = *arenas_[r];
        arena.Reset();
        ranges[r] = clients_->Answer(
            num_clients * r / num_ranges, num_clients * (r + 1) / num_ranges,
            now_ms, qids, arena, injector_.get(), epoch_index_);
        CountAnswered(ranges[r].participants);
      }
    });

    // Forward: one task per proxy appends every range's records to its
    // lanes in range order — client-id order, so topic contents are
    // byte-identical at any worker count — then forwards them. Standby j
    // shares primary j's outbound lane topics, so it runs in the same task,
    // after the primary; no other task touches either proxy's topics.
    pool_->ParallelFor(proxies_.size(), [&](size_t first, size_t last) {
      for (size_t j = first; j < last; ++j) {
        const metrics::ScopedTimer proxy_timer(stage_ns_.proxy_forward);
        const metrics::EpochTimeline::Span proxy_span(timeline_,
                                                      "proxy_forward");
        for (const AnsweredRange& range : ranges) {
          for (size_t k = 0; k < qids.size(); ++k) {
            proxies_[j]->Receive(qids[k], range.lanes[j][k].records);
          }
        }
        if (!standby_proxies_.empty()) {
          for (const AnsweredRange& range : ranges) {
            for (size_t k = 0; k < qids.size(); ++k) {
              standby_proxies_[j]->Receive(qids[k],
                                           range.lanes[j][k].standby);
            }
          }
        }
        shares_forwarded_.Increment(proxies_[j]->ForwardLanes());
        if (!standby_proxies_.empty()) {
          shares_forwarded_.Increment(standby_proxies_[j]->ForwardLanes());
        }
      }
    });
    ranges.clear();  // every record now lives in broker slabs

    // Drain: every lane, in ascending-QID order, its join shards — one per
    // lane topic partition — in parallel.
    {
      const metrics::ScopedTimer drain_timer(stage_ns_.agg_consume);
      const metrics::EpochTimeline::Span drain_span(timeline_, "agg_consume");
      shares_consumed_.Increment(aggregator_->Drain());
    }
    // The proxies released their in-topics while forwarding; nothing reads
    // the drained out-topics again.
    aggregator_->ReleaseConsumed();
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

// Delivers the delay-fated shares held back, at the start of the next
// epoch: they land at the head of each lane's inbound topic (before this
// epoch's answers) with their original event time, so they are forwarded
// first and the join sees them first. The deferred buffer is sorted by
// (proxy, QID, MID), so one pass batches per lane.
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
      batch.push_back(broker::ProduceView{deferred[i].message_id,
                                          deferred[i].record,
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
  for (const auto* tier : {&proxies_, &standby_proxies_}) {
    for (const auto& proxy : *tier) {
      for (const auto& [qid, active] : active_) {
        bytes +=
            broker_.GetTopic(proxy->lane_in_topic(qid)).metrics().bytes_in;
      }
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
