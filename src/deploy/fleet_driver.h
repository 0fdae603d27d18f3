// Drives a fleet of simulated clients against real daemons over TCP: the
// client-side half of a socket deployment (proxy daemons + aggregator
// daemon being the server side).
//
// The driver dials one TcpBusClient per daemon and hands them to a
// system::EpochDriver — the driver PrivApproxSystem runs too — as the
// endpoints of its proxy tier and aggregator: records are produced over
// the bus, verbs sent with TcpBusClient::Control. So submission, parameter
// updates, every epoch step, the watermark, flush and result take-out run
// the same code in both deployments, and the daemons serve them with the
// same nodes (system/proxy_node.h, system/aggregator_node.h) the
// in-process system calls directly; the two deployments' results are
// bit-identical (DESIGN.md §6j). With no worker pool the fleet is answered
// as one range, in client-id order.
//
// What only this driver has: retention across the durable fleet, offset
// snapshots, the daemons' remote /metrics, and control retries for the
// chaos seams. Fault injection does not exist on this path.

#ifndef PRIVAPPROX_DEPLOY_FLEET_DRIVER_H_
#define PRIVAPPROX_DEPLOY_FLEET_DRIVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "aggregator/aggregator.h"
#include "client/client.h"
#include "core/budget_manager.h"
#include "core/query.h"
#include "deploy/endpoint.h"
#include "metrics/metrics.h"
#include "system/epoch_driver.h"
#include "transport/tcp_bus.h"

namespace privapprox::deploy {

struct FleetDriverConfig {
  size_t num_clients = 0;
  uint64_t seed = 42;
  bool invert_answers = false;
  std::vector<Endpoint> proxies;  // one proxy daemon per proxy index
  Endpoint aggregator;
  // Mirrors SystemConfig::budget so admission (and thus the announced
  // parameters) matches the in-process system.
  core::BudgetManagerConfig budget;
  // Chaos hooks (crash-restart CI): run between RunEpoch's wire phases —
  // after every lane batch has been produced / acked, and right before the
  // aggregator drain. A hook typically kill -9s and restarts a daemon, so
  // the next RPC at that daemon fails once while the TCP client re-dials;
  // set control_retries > 0 to absorb those one-shot failures. Retried
  // verbs are idempotent: forward_lanes forwards whatever is still pending,
  // and a durable daemon recovers its state before printing "listening".
  std::function<void()> after_produce_hook;
  std::function<void()> before_drain_hook;
  size_t control_retries = 0;
};

// What one distributed epoch moved, mirroring the in-process EpochStats
// core fields (fault injection does not exist on this path).
struct FleetEpochStats {
  size_t participants = 0;
  uint64_t shares_sent = 0;
  uint64_t shares_forwarded = 0;
  uint64_t shares_consumed = 0;
};

class FleetDriver {
 public:
  explicit FleetDriver(FleetDriverConfig config);
  ~FleetDriver();

  FleetDriver(const FleetDriver&) = delete;
  FleetDriver& operator=(const FleetDriver&) = delete;

  size_t num_clients() const { return config_.num_clients; }
  // The client's local database is the test/bench seam — fill it exactly
  // like the reference system's before answering.
  client::Client& client(size_t index) {
    return driver_->fleet().client(index);
  }

  // Submission phase over the wire; returns the admitted (possibly
  // down-sampled) parameters, like PrivApproxSystem::SubmitQuery. A
  // refused or failed submission leaves every client unsubscribed.
  core::ExecutionParams SubmitQuery(const core::Query& query,
                                    const core::ExecutionParams& params) {
    return driver_->SubmitQuery(query, params);
  }
  // Re-tunes a submitted query, like PrivApproxSystem::UpdateParams.
  core::ExecutionParams UpdateParams(uint64_t query_id,
                                     const core::ExecutionParams& params) {
    return driver_->UpdateParams(query_id, params);
  }

  FleetEpochStats RunEpoch(int64_t now_ms);

  void AdvanceWatermark(int64_t watermark_ms) {
    driver_->AdvanceWatermark(watermark_ms);
  }
  void Flush() { driver_->Flush(); }
  std::vector<aggregator::WindowedResult> TakeResults() {
    return driver_->TakeResults();
  }

  // Retention sweep across the durable fleet: fetches the aggregator's
  // per-source consumed offsets (source_offsets), routes each topic's
  // offsets to the proxy daemon that hosts it, and has every proxy trim
  // sealed log segments below those watermarks (plus its own lane-inbound
  // watermarks). Returns segments deleted fleet-wide. Safe (a no-op) on a
  // non-durable fleet.
  uint64_t AdvanceRetention();

  // Human-readable offset/storage dumps (snapshot_offsets verb) — the chaos
  // CI job uploads these as artifacts.
  std::string ProxySnapshotText(size_t proxy_index);
  std::string AggregatorSnapshotText();

  // Remote /metrics dumps, fetched via each daemon's "metrics" control verb
  // (the CI socket-smoke job uploads these as artifacts).
  std::string ProxyMetricsText(size_t proxy_index);
  std::string AggregatorMetricsText();
  // The driver's own exposition: the epoch driver's families (epoch totals,
  // stage histograms, per-query counters), its client fleet's decision
  // counters and its transport counters.
  std::string MetricsText() { return registry_.RenderText(); }

 private:
  // Control with up to config_.control_retries retried attempts — absorbs
  // the single failed RPC a killed-and-restarted daemon costs its client.
  std::vector<uint8_t> ControlWithRetry(transport::TcpBusClient& bus,
                                        const std::string& verb,
                                        std::span<const uint8_t> payload);

  FleetDriverConfig config_;
  metrics::Registry registry_;
  std::vector<std::unique_ptr<transport::TcpBusClient>> proxy_buses_;
  std::unique_ptr<transport::TcpBusClient> aggregator_bus_;
  std::unique_ptr<system::EpochDriver> driver_;
};

}  // namespace privapprox::deploy

#endif  // PRIVAPPROX_DEPLOY_FLEET_DRIVER_H_
