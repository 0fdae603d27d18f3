// The one epoch driver both deployments run (paper §3.2, Fig 3; DESIGN.md
// §6c). PrivApproxSystem builds proxy and aggregator nodes over one broker,
// deploy::FleetDriver dials proxyd and aggregatord, and each hands the
// result to an EpochDriver as one endpoint per node: a MessageBus for
// records and a transport::ControlHandler for verbs — the node's
// HandleControl in process, TcpBusClient::Control over TCP. The driver
// owns the ClientFleet, the budget manager and the registered queries, and
// runs submission, parameter updates, every epoch step, the watermark,
// flush and result take-out the same way for both, so a TCP run's lane
// topics and results are bit-identical to the in-process run's by
// construction (§6j). During an epoch only pool task j touches proxy j's
// endpoint, so each node's verbs run on one thread at a time. The driver
// registers the epoch totals, privapprox_stage_ns and the per-query
// counters on the registry it is handed.

#ifndef PRIVAPPROX_SYSTEM_EPOCH_DRIVER_H_
#define PRIVAPPROX_SYSTEM_EPOCH_DRIVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "aggregator/aggregator.h"
#include "client/client.h"
#include "common/arena.h"
#include "common/thread_pool.h"
#include "core/budget_manager.h"
#include "core/query.h"
#include "fault/fault.h"
#include "metrics/metrics.h"
#include "metrics/timeline.h"
#include "system/client_fleet.h"
#include "transport/message_bus.h"
#include "transport/wire.h"

namespace privapprox::system {

struct EpochStats {
  // (client, query) pairs that passed the sampling coin this epoch. With
  // one query this is exactly the classic "clients that participated".
  size_t participants = 0;
  uint64_t shares_sent = 0;  // client -> proxy messages
  uint64_t shares_forwarded = 0;
  uint64_t shares_consumed = 0;
  // Records dropped this epoch because they failed to decode (truncated
  // share or garbage plaintext after the join) — the aggregator counts
  // them; this surfaces the per-epoch delta to RunEpoch callers.
  uint64_t malformed_dropped = 0;
  // Fault-injection and recovery deltas (all zero when SystemConfig::fault
  // is unset). Per-epoch deltas of the privapprox_fault_* /
  // privapprox_recovery_* registry counters.
  uint64_t fault_shares_dropped = 0;
  uint64_t fault_shares_corrupted = 0;
  uint64_t fault_shares_duplicated = 0;
  uint64_t fault_shares_delayed = 0;
  uint64_t fault_forward_timeouts = 0;
  uint64_t fault_proxy_crashes = 0;
  uint64_t fault_lost_mids = 0;  // (QID, MID) pairs that can never join
  uint64_t recovery_retries = 0;
  uint64_t recovery_failovers = 0;
  uint64_t recovery_late_delivered = 0;  // deferred shares replayed
};

struct NodeEndpoint {
  transport::MessageBus* bus = nullptr;  // records (proxies only)
  transport::ControlHandler control;     // verbs
};

struct EpochDriverConfig {
  size_t num_clients = 0;
  uint64_t seed = 42;
  bool invert_answers = false;
  core::BudgetManagerConfig budget;
  std::vector<NodeEndpoint> proxies;  // one per proxy index
  transport::ControlHandler aggregator;
  // Optional, not owned. Without a pool the fleet is one client range.
  ThreadPool* pool = nullptr;
  fault::FaultInjector* injector = nullptr;
  metrics::EpochTimeline* timeline = nullptr;
  // Chaos seams: after every lane batch is produced; before the drain.
  std::function<void()> after_produce_hook;
  std::function<void()> before_drain_hook;
};

class EpochDriver {
 public:
  struct ActiveQuery {
    core::Query query;
    core::ExecutionParams params;  // admitted (possibly down-sampled)
    metrics::Counter& participants_total;  // {query="<QID>"}
    metrics::Counter& shares_sent_total;
  };

  // `registry` must outlive the driver; so must every endpoint.
  EpochDriver(EpochDriverConfig config, metrics::Registry& registry);

  EpochDriver(const EpochDriver&) = delete;
  EpochDriver& operator=(const EpochDriver&) = delete;

  ClientFleet& fleet() { return clients_; }

  // Both return the admitted (possibly down-sampled) parameters; a failure
  // leaves the budget ledger as it was. SubmitQuery throws
  // core::BudgetExceededError when the query cannot fit,
  // std::invalid_argument for a duplicate QID or anything
  // core::ValidateAnnouncement refuses; UpdateParams std::logic_error for
  // an unknown QID.
  core::ExecutionParams SubmitQuery(const core::Query& query,
                                    const core::ExecutionParams& params);
  core::ExecutionParams UpdateParams(uint64_t query_id,
                                     const core::ExecutionParams& params);

  const std::map<uint64_t, ActiveQuery>& queries() const { return active_; }
  const std::vector<uint64_t>& query_ids() const { return qids_; }
  core::PrivacyBudgetManager& budget_manager() { return budget_manager_; }

  // Throws std::logic_error before any query was submitted. Leaves
  // malformed_dropped 0: no verb reports it.
  EpochStats RunEpoch(int64_t now_ms);
  void AdvanceWatermark(int64_t watermark_ms);
  void Flush();
  std::vector<aggregator::WindowedResult> TakeResults();

 private:
  // Runs fn(i) for i in [0, count), on the pool when there is one.
  template <typename Fn>
  void ForEach(size_t count, const Fn& fn) {
    if (config_.pool == nullptr) {
      for (size_t i = 0; i < count; ++i) {
        fn(i);
      }
      return;
    }
    config_.pool->ParallelFor(count, [&fn](size_t first, size_t last) {
      for (size_t i = first; i < last; ++i) {
        fn(i);
      }
    });
  }
  // ensure_lane everywhere, `aggregator_verb` with the announcement, then
  // the announcement through every proxy to its client cohort.
  void Distribute(const core::Query& query,
                  const core::ExecutionParams& params,
                  const char* aggregator_verb);
  void ReplayDeferred();
  void NoteLostMids(int64_t now_ms);

  EpochDriverConfig config_;
  metrics::Registry& registry_;
  metrics::EpochTimeline own_timeline_;  // disabled, for config without one
  metrics::EpochTimeline& timeline_;
  metrics::Counter& epochs_;
  metrics::Counter& shares_forwarded_;
  metrics::Counter& shares_consumed_;
  // privapprox_stage_ns, by stage.
  struct StageHistograms {
    metrics::Histogram& answer_shard;
    metrics::Histogram& proxy_forward;
    metrics::Histogram& agg_consume;
    metrics::Histogram& epoch;
  };
  StageHistograms stage_ns_;
  core::PrivacyBudgetManager budget_manager_;
  ClientFleet clients_;
  // Share-encoding arenas, one per client range, reused every epoch: range
  // r's records live in arenas_[r] until the produce phase has sent them.
  std::vector<std::unique_ptr<EpochArena>> arenas_;
  std::vector<AnsweredRange> ranges_;  // one per arena; empty between epochs
  uint64_t epoch_index_ = 0;  // keys the per-epoch proxy crash draw
  std::map<uint64_t, ActiveQuery> active_;  // QID -> query, ascending
  std::vector<uint64_t> qids_;              // active_'s keys, ascending
};

}  // namespace privapprox::system

#endif  // PRIVAPPROX_SYSTEM_EPOCH_DRIVER_H_
