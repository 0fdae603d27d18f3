#include "system/epoch_driver.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "common/byte_order.h"
#include "core/query_wire.h"
#include "deploy/result_wire.h"
#include "proxy/proxy.h"

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

// A lane batch a range left empty costs no topic name and no produce (and
// over TCP no frame).
void ProduceLane(transport::MessageBus& bus, size_t proxy, uint64_t qid,
                 std::span<const broker::ProduceView> batch) {
  if (!batch.empty()) {
    bus.Produce(proxy::LaneInTopic(proxy, qid), batch);
  }
}

}  // namespace

EpochDriver::EpochDriver(EpochDriverConfig config, metrics::Registry& registry)
    : config_(std::move(config)),
      registry_(registry),
      timeline_(config_.timeline != nullptr ? *config_.timeline
                                            : own_timeline_),
      epochs_(registry.GetCounter("privapprox_epochs_total",
                                  "Answering epochs run")),
      shares_forwarded_(registry.GetCounter(
          "privapprox_shares_forwarded_total",
          "Shares moved proxy inbound -> outbound")),
      shares_consumed_(registry.GetCounter(
          "privapprox_shares_consumed_total",
          "Records consumed by the aggregator (including malformed)")),
      stage_ns_{StageHistogram(registry, "answer_shard"),
                StageHistogram(registry, "proxy_forward"),
                StageHistogram(registry, "agg_consume"),
                StageHistogram(registry, "epoch")},
      budget_manager_(config_.budget),
      clients_(config_.num_clients, config_.proxies.size(), config_.seed,
               config_.invert_answers, registry) {
  const size_t threads =
      config_.pool != nullptr ? config_.pool->num_threads() : 1;
  arenas_.resize(std::max<size_t>(1, std::min(config_.num_clients, threads)));
  for (auto& arena : arenas_) {
    arena = std::make_unique<EpochArena>();
  }
  ranges_.resize(arenas_.size());
}

void EpochDriver::Distribute(const core::Query& query,
                             const core::ExecutionParams& params,
                             const char* aggregator_verb) {
  std::vector<uint8_t> qid;
  transport::PutU64(query.query_id, qid);
  for (const NodeEndpoint& node : config_.proxies) {
    node.control("ensure_lane", qid);
  }
  const std::vector<uint8_t> announcement =
      core::SerializeAnnouncement(core::QueryAnnouncement{query, params});
  config_.aggregator(aggregator_verb, announcement);
  // Clients learn of the query last, so that a failure above leaves none of
  // them subscribed. The announcement travels driver -> proxy query topics
  // -> clients as opaque bytes; every cohort re-parses and re-verifies what
  // its own proxy relayed.
  const broker::ProduceView view{/*key=*/0, announcement, /*timestamp_ms=*/0};
  for (size_t j = 0; j < config_.proxies.size(); ++j) {
    const NodeEndpoint& node = config_.proxies[j];
    const std::string topic = proxy::QueryInTopic(j);
    // Attach to the proxy-created topic (EnsureTopic checks that both sides
    // agree on the partition count).
    node.bus->EnsureTopic(topic, 1);
    node.bus->Produce(topic, std::span<const broker::ProduceView>(&view, 1));
    node.control("forward_queries", {});
  }
  for (size_t j = 0; j < config_.proxies.size(); ++j) {
    clients_.DeliverAnnouncement(j, *config_.proxies[j].bus,
                                 proxy::QueryOutTopic(j));
  }
}

core::ExecutionParams EpochDriver::SubmitQuery(
    const core::Query& query, const core::ExecutionParams& params) {
  core::ValidateAnnouncement(query, params);
  const uint64_t qid = query.query_id;
  if (active_.count(qid) != 0) {
    throw std::invalid_argument("EpochDriver: query id already submitted");
  }
  // The budget manager may down-sample `s` to fit the fleet cap (or refuse
  // the query); everything downstream uses the admitted parameters.
  const core::BudgetAdmission admission = budget_manager_.Admit(qid, params);
  try {
    Distribute(query, admission.params, "register_query");
  } catch (...) {
    budget_manager_.Release(qid);
    throw;
  }
  const metrics::Labels labels{{"query", std::to_string(qid)}};
  active_.emplace(
      qid, ActiveQuery{query, admission.params,
                       registry_.GetCounter(
                           "privapprox_query_participants_total",
                           "Clients that passed this query's sampling coin, "
                           "summed over epochs",
                           labels),
                       registry_.GetCounter(
                           "privapprox_query_shares_sent_total",
                           "Client -> proxy share messages for this query",
                           labels)});
  qids_.insert(std::upper_bound(qids_.begin(), qids_.end(), qid), qid);
  return admission.params;
}

core::ExecutionParams EpochDriver::UpdateParams(
    uint64_t query_id, const core::ExecutionParams& params) {
  const auto it = active_.find(query_id);
  if (it == active_.end()) {
    throw std::logic_error("EpochDriver::UpdateParams: unknown query id");
  }
  ActiveQuery& active = it->second;
  params.Validate();
  const core::BudgetAdmission admission =
      budget_manager_.Update(query_id, params);
  try {
    Distribute(active.query, admission.params, "update_params");
  } catch (...) {
    budget_manager_.Update(query_id, active.params);
    throw;
  }
  active.params = admission.params;
  return admission.params;
}

// Delivers the delay-fated shares held back, at the start of the next
// epoch: they land at the head of each lane's inbound topic (before this
// epoch's answers) with their original event time, so they are forwarded
// first and the join sees them first. The deferred buffer is sorted by
// (proxy, QID, MID), so one pass batches per lane.
void EpochDriver::ReplayDeferred() {
  const std::vector<fault::DeferredShare> deferred =
      config_.injector->TakeDeferred();
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
    config_.proxies[proxy].bus->Produce(proxy::LaneInTopic(proxy, qid), batch);
  }
}

// Hands the epoch's unjoinable (query, MID) pairs to each query's lane so
// every window covering now_ms widens its error bound (paper Eq. 2 with the
// lost answers removed from the effective sample). The pairs come sorted by
// (QID, MID), so one pass groups per lane.
void EpochDriver::NoteLostMids(int64_t now_ms) {
  const std::vector<std::pair<uint64_t, uint64_t>> lost =
      config_.injector->TakeLostMids();
  std::vector<uint8_t> payload;
  for (size_t i = 0, end = 0; i < lost.size(); i = end) {
    while (end < lost.size() && lost[end].first == lost[i].first) {
      ++end;
    }
    payload.clear();
    transport::PutU64(lost[i].first, payload);
    transport::PutU64(static_cast<uint64_t>(now_ms), payload);
    transport::PutU32(static_cast<uint32_t>(end - i), payload);
    for (size_t m = i; m < end; ++m) {
      transport::PutU64(lost[m].second, payload);
    }
    config_.aggregator("note_lost_mids", payload);
  }
}

EpochStats EpochDriver::RunEpoch(int64_t now_ms) {
  if (active_.empty()) {
    throw std::logic_error("EpochDriver::RunEpoch: no query submitted");
  }
  fault::FaultInjector* const injector = config_.injector;
  const size_t num_proxies = config_.proxies.size();
  const uint64_t participants_before = clients_.participants();
  const uint64_t forwarded_before = shares_forwarded_.Value();
  const uint64_t consumed_before = shares_consumed_.Value();
  const fault::FaultTotals fault_before =
      injector != nullptr ? injector->totals() : fault::FaultTotals{};
  {
    const metrics::ScopedTimer timer(stage_ns_.epoch);
    const metrics::EpochTimeline::Span span(timeline_, "epoch");
    if (injector != nullptr) {
      ReplayDeferred();
      injector->CountCrashes(epoch_index_, num_proxies);
    }

    // Answer: one contiguous client range per pool thread, each into its
    // own arena. Every random decision draws from per-client state, so how
    // the fleet is split cannot change a byte.
    const size_t num_clients = clients_.size();
    const size_t num_ranges = ranges_.size();
    ForEach(num_ranges, [&](size_t r) {
      const metrics::ScopedTimer range_timer(stage_ns_.answer_shard);
      const metrics::EpochTimeline::Span range_span(timeline_,
                                                    "answer_shard");
      EpochArena& arena = *arenas_[r];
      arena.Reset();
      ranges_[r] = clients_.Answer(
          num_clients * r / num_ranges, num_clients * (r + 1) / num_ranges,
          now_ms, qids_, arena, injector, epoch_index_);
      size_t k = 0;
      for (auto& [qid, active] : active_) {
        const uint64_t participants = ranges_[r].participants[k++];
        active.participants_total.Increment(participants);
        active.shares_sent_total.Increment(participants * num_proxies);
      }
    });

    // Produce: one task per proxy appends every range's records to its
    // lanes in range order (client-id order at any range split), then
    // every range's failed-over records in range order. A per-range
    // interleave would make the lane bytes depend on the split.
    ForEach(num_proxies, [&](size_t j) {
      const metrics::ScopedTimer proxy_timer(stage_ns_.proxy_forward);
      const metrics::EpochTimeline::Span proxy_span(timeline_,
                                                    "proxy_forward");
      for (const auto list : {&LaneRecords::records, &LaneRecords::failover}) {
        for (const AnsweredRange& range : ranges_) {
          for (size_t k = 0; k < qids_.size(); ++k) {
            ProduceLane(*config_.proxies[j].bus, j, qids_[k],
                        range.lanes[j][k].*list);
          }
        }
      }
    });
    // Every record now lives with the proxies.
    std::fill(ranges_.begin(), ranges_.end(), AnsweredRange{});
    if (config_.after_produce_hook) {
      config_.after_produce_hook();
    }

    ForEach(num_proxies, [&](size_t j) {
      const metrics::ScopedTimer proxy_timer(stage_ns_.proxy_forward);
      const metrics::EpochTimeline::Span proxy_span(timeline_,
                                                    "proxy_forward");
      shares_forwarded_.Increment(transport::WireReader(
          config_.proxies[j].control("forward_lanes", {})).TakeU64());
    });
    if (config_.before_drain_hook) {
      config_.before_drain_hook();
    }

    const metrics::ScopedTimer drain_timer(stage_ns_.agg_consume);
    const metrics::EpochTimeline::Span drain_span(timeline_, "agg_consume");
    shares_consumed_.Increment(
        transport::WireReader(config_.aggregator("drain", {})).TakeU64());
  }
  if (injector != nullptr) {
    NoteLostMids(now_ms);
  }
  ++epoch_index_;
  epochs_.Increment();

  EpochStats stats;
  stats.participants =
      static_cast<size_t>(clients_.participants() - participants_before);
  stats.shares_sent = stats.participants * num_proxies;
  stats.shares_forwarded = shares_forwarded_.Value() - forwarded_before;
  stats.shares_consumed = shares_consumed_.Value() - consumed_before;
  if (injector != nullptr) {
    const fault::FaultTotals after = injector->totals();
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

void EpochDriver::AdvanceWatermark(int64_t watermark_ms) {
  static const std::string kVerb = "advance_watermark";  // past SSO
  std::array<uint8_t, 8> payload;
  StoreLe<uint64_t>(payload.data(), static_cast<uint64_t>(watermark_ms));
  config_.aggregator(kVerb, payload);
}

void EpochDriver::Flush() { config_.aggregator("flush", {}); }

std::vector<aggregator::WindowedResult> EpochDriver::TakeResults() {
  return deploy::DeserializeResults(config_.aggregator("take_results", {}));
}

}  // namespace privapprox::system
