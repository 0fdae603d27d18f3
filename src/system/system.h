// End-to-end wiring: clients + proxies + aggregator + analyst interface
// (paper Figure 3). This is the facade examples and case-study benches use.
//
// The driving model is discrete epochs: the harness feeds client databases,
// then calls RunEpoch(now) once per answer period. Each epoch runs the full
// pipeline — sampling/randomization/splitting at every client, transmission
// through every proxy, join/decrypt/window at the aggregator — and window
// results surface once the event-time watermark passes their end.
//
// The system builds one broker with a ProxyNode per proxy and an
// AggregatorNode over it, and hands them to the system::EpochDriver that
// deploy::FleetDriver also runs (system/epoch_driver.h, DESIGN.md §6c):
// every step goes through the nodes' verbs, as it does over TCP to proxyd
// and aggregatord. What the system adds is what the socket deployment lacks:
// fault injection, the historical store (one more topic on its broker) and
// the timeline.
//
// Multi-query: one system hosts N concurrent queries over a single client
// fleet, broker, proxy tier, and aggregator. Each submitted query gets its
// own per-(query, proxy) broker lanes of 4 partitions each, its own
// aggregator lane (join + window + estimator, with one join shard per lane
// partition draining on the worker pool), and a per-query slice of every
// epoch: clients answer all subscribed queries in one pass with a shared
// sampling draw but independent per-query randomization, so each query's
// results are bit-identical to a run where it is the only query. The
// answer tap's order depends only on the partition count, so historical
// samples are the same at every worker count. Admission runs through
// a fleet-wide privacy-budget manager (core/budget_manager.h): a query that
// would push the summed zero-knowledge-privacy spend past the configured
// cap is refused or down-sampled.
//
// Observability: the system owns a metrics::Registry and hands it to every
// component it builds and to the driver, each of which registers its own
// families; the system adds the broker gauges. Every instrument is always
// on, and EpochStats is a per-epoch delta of the counters. The
// EpochTimeline trace is opt-in.

#ifndef PRIVAPPROX_SYSTEM_SYSTEM_H_
#define PRIVAPPROX_SYSTEM_SYSTEM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "aggregator/aggregator.h"
#include "aggregator/historical.h"
#include "broker/broker.h"
#include "client/client.h"
#include "common/thread_pool.h"
#include "core/budget.h"
#include "core/budget_manager.h"
#include "core/query.h"
#include "fault/fault.h"
#include "metrics/metrics.h"
#include "metrics/timeline.h"
#include "storage/partition_log.h"
#include "system/aggregator_node.h"
#include "system/epoch_driver.h"
#include "system/proxy_node.h"
#include "transport/inproc_bus.h"

namespace privapprox::system {

// Epoch pipeline execution knobs.
struct PipelineOptions {
  // Worker threads for the epoch pipeline (client answering, per-proxy
  // forwarding, and the aggregator's join shards — one per lane topic
  // partition, 4 here). 0 = hardware_concurrency. Results are
  // byte-identical for every value: workers answer contiguous client ranges
  // and every lane receives them in range (client-id) order.
  size_t num_worker_threads = 0;
};

// Historical analytics store (§3.3.1).
struct HistoricalOptions {
  // Tee joined answers into the broker's one-partition `historical` topic,
  // one record per answer keyed by its QID (aggregator::Aggregator::
  // AnswerTapFn). The topic is durable, and recovered at restart, exactly
  // when BrokerOptions::data_dir makes every topic so.
  bool enabled = false;
};

// Observability knobs (see the header comment).
struct MetricsOptions {
  // Per-stage spans recorded into the EpochTimeline (dump via
  // TimelineJson() as chrome://tracing JSON). Off by default: spans cost a
  // mutexed append per client range and per proxy.
  bool timeline = false;
};

// Durable topic spill. Empty data_dir (the default) keeps every broker
// topic memory-only — byte-identical to previous releases; non-empty roots
// per-partition segment logs at <data_dir>/<topic>/p<k> and the system's
// broker recovers whatever a previous incarnation left there before any
// component attaches.
struct BrokerOptions {
  std::string data_dir;
  storage::PartitionLogOptions log;
};

struct SystemConfig {
  size_t num_clients = 100;
  size_t num_proxies = 2;
  uint64_t seed = 42;
  double confidence = 0.95;
  // Clients answer the inverted query (§3.3.2).
  bool invert_answers = false;

  // Fleet-wide privacy-budget admission. The default cap is infinite, so
  // single-query configs and exact-mode tests admit unconditionally; set
  // budget.max_epsilon_zk to enforce composition across queries.
  core::BudgetManagerConfig budget;

  PipelineOptions pipeline;
  BrokerOptions broker;
  HistoricalOptions historical;
  MetricsOptions metrics;
  // Deterministic fault injection + recovery (src/fault/fault.h). Unset
  // means no injector is built and every epoch is byte-identical to a
  // build without the fault layer — results, broker topic contents, and
  // EpochStats (the bit-identity invariant tests/fault_test.cc pins).
  // A set plan derives every fault from (plan.seed, QID, MID, proxy)
  // hashes, so every worker count sees identical faults and every query
  // gets an independent replayable fault sequence.
  std::optional<fault::FaultPlan> fault;
};

class PrivApproxSystem {
 public:
  explicit PrivApproxSystem(SystemConfig config);
  ~PrivApproxSystem();

  size_t num_clients() const { return config_.num_clients; }
  client::Client& client(size_t index) {
    return driver_->fleet().client(index);
  }

  // Analyst entry point: converts the budget into execution parameters via
  // the initializer, runs privacy-budget admission, and distributes the
  // query to all clients. Returns the parameters actually admitted (the
  // budget manager may have down-sampled `s`). A refused query leaves the
  // system exactly as it was: it is validated before admission, and
  // clients learn of it only once its lanes and aggregator lane exist.
  core::ExecutionParams SubmitQuery(const core::Query& query,
                                    const core::QueryBudget& budget,
                                    double expected_yes_fraction = 0.5);

  // Variant with explicit parameters (micro-benchmarks sweep them
  // directly). Also returns the admitted parameters. Throws
  // core::BudgetExceededError when the query cannot fit under
  // SystemConfig::budget, std::invalid_argument for a duplicate QID or
  // anything core::ValidateAnnouncement refuses.
  core::ExecutionParams SubmitQuery(const core::Query& query,
                                    const core::ExecutionParams& params) {
    return driver_->SubmitQuery(query, params);
  }

  // Redistributes re-tuned execution parameters for one query (§5
  // feedback loop) without disturbing in-flight window state: the budget
  // manager re-prices the query, a fresh announcement reaches every
  // client, and the query's estimator switches to the admitted (s, p, q).
  // Returns the admitted parameters.
  core::ExecutionParams UpdateParams(uint64_t query_id,
                                     const core::ExecutionParams& params) {
    return driver_->UpdateParams(query_id, params);
  }

  size_t num_queries() const { return driver_->queries().size(); }
  core::PrivacyBudgetManager& budget_manager() {
    return driver_->budget_manager();
  }

  // Runs one answering epoch at `now_ms`, driving every registered query
  // (EpochDriver::RunEpoch): replay deferred shares, answer min(clients,
  // workers) contiguous client ranges on the pool, one pool task per proxy
  // produces every range's lane records in range order, one per proxy
  // forwards them, then the aggregator drains. Results, topic contents and
  // stats are bit-identical at every worker count. The returned stats are
  // the epoch's delta of the registry's core pipeline counters.
  EpochStats RunEpoch(int64_t now_ms);

  // Advances the watermark on every query lane; fires completed windows
  // into results().
  void AdvanceWatermark(int64_t watermark_ms) {
    driver_->AdvanceWatermark(watermark_ms);
  }
  // Fires everything pending (end of run), all queries.
  void Flush() { driver_->Flush(); }

  // Fired windows not yet taken.
  const std::vector<aggregator::WindowedResult>& results() const {
    return aggregator_node_->results();
  }
  std::vector<aggregator::WindowedResult> TakeResults() {
    return driver_->TakeResults();
  }

  // Bytes produced by clients into proxy lane in-topics (all lanes,
  // failed-over shares included) so far — the client->proxy network
  // traffic of Fig 9a.
  uint64_t ClientToProxyBytes() const;

  // Historical analytics over query `query_id`'s stored answers stamped in
  // [from_ms, to_ms) (§3.3.1), de-biased with the query's current
  // parameters. Throws std::logic_error unless historical.enabled, and
  // std::invalid_argument for a QID that is not registered.
  core::QueryResult RunHistorical(uint64_t query_id, int64_t from_ms,
                                  int64_t to_ms,
                                  const aggregator::BatchQueryBudget& budget);

  // --- Observability ----------------------------------------------------
  metrics::Registry& metrics_registry() { return registry_; }
  // Prometheus-style text exposition of every registered family — the
  // `/metrics` dump (README quickstart).
  std::string MetricsText() { return registry_.RenderText(); }
  std::string MetricsJson() { return registry_.RenderJson(); }
  // chrome://tracing JSON of the spans recorded so far (empty trace unless
  // SystemConfig::metrics.timeline is on).
  std::string TimelineJson() const { return timeline_.ToChromeTracingJson(); }

  broker::Broker& broker() { return broker_; }
  // The in-process transport every component speaks — the deterministic
  // counterpart of the daemons' TCP buses.
  transport::InProcessBus& bus() { return bus_; }
  aggregator::Aggregator& aggregator() {
    return aggregator_node_->aggregator();
  }
  size_t num_worker_threads() const { return pool_->num_threads(); }

 private:
  // Builds proxy node `index` and its driver endpoint.
  NodeEndpoint AddProxyNode(size_t index);

  SystemConfig config_;
  // Declared before every pipeline component: proxies, clients, and the
  // aggregator hold references to instruments they registered on it, so the
  // registry must outlive them (members destroy in reverse declaration
  // order).
  metrics::Registry registry_;
  metrics::EpochTimeline timeline_;
  broker::Broker broker_;
  // The single in-process MessageBus every node and the driver run over
  // (declared right after the broker it wraps, before every component
  // holding a reference to it).
  transport::InProcessBus bus_{broker_};
  std::unique_ptr<ThreadPool> pool_;
  // Fault layer (null unless SystemConfig::fault is set).
  std::unique_ptr<fault::FaultInjector> injector_;
  std::vector<std::unique_ptr<ProxyNode>> proxy_nodes_;
  // The broker's `historical` topic; null unless historical.enabled.
  broker::Topic* historical_ = nullptr;
  Xoshiro256 historical_rng_;
  std::unique_ptr<AggregatorNode> aggregator_node_;
  std::unique_ptr<EpochDriver> driver_;
};

}  // namespace privapprox::system

#endif  // PRIVAPPROX_SYSTEM_SYSTEM_H_
