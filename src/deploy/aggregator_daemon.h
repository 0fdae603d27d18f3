// The aggregator as a standalone process: the unchanged aggregator::
// Aggregator running over a TopicRouterBus of TcpBusClients — one dialed at
// each proxy daemon — plus a control TcpBusServer for the analyst-facing
// verbs.
//
// Topic routing: every topic the aggregator consumes is named
// "proxy<j>.q<QID>.out", so the router resolves prefix "proxy<j>." to the
// client dialed at proxy daemon j, and the n-source join code runs
// byte-for-byte the code that runs in process (DESIGN.md §6j's bit-identity
// argument leans on this). A lane has one join shard per partition of
// those topics (proxyd's --partitions), drained one after another: the
// daemon runs no worker pool.
//
// Control verbs (executed on the server's event-loop thread, so the
// aggregator — single-threaded by contract — needs no locking):
//
//   register_query     announcement bytes          -> (empty)
//   drain              (empty)                     -> u64 shares consumed;
//                                                    without a data dir it
//                                                    then releases the
//                                                    drained out-topics
//   advance_watermark  u64 (bit-cast i64 ms)       -> (empty)
//   flush              (empty)                     -> (empty)
//   take_results       (empty)                     -> result_wire bytes
//   source_offsets     (empty)                     -> u32 n, n x {str topic,
//                                                    u32 k, k x u64 offset}
//   snapshot_offsets   (empty)                     -> text offset dump
//   metrics            (empty)                     -> Prometheus text
//   ping               (empty)                     -> (empty)
//
// Durability: with a non-empty data_dir the daemon keeps a *query journal*
// — a storage::PartitionLog of raw announcement bytes at
// <data_dir>/query_journal, fsynced per append. A restarted daemon replays
// the journal to re-register every query, then its lane consumers restart
// at offset zero and re-consume the (durable, retained) proxy streams;
// because windows only fire at Flush, an interrupted epoch converges to the
// uninterrupted result. register_query is idempotent across the restart
// (already-registered QIDs are skipped, and skipped registrations are not
// re-journaled), and it refuses an announcement core::ValidateAnnouncement
// rejects, or one whose lane topics are not co-partitioned across the
// proxies (Aggregator::SourcePartitions), before journaling it, so every
// journaled record replays.
//
// privapprox_aggregatord (deploy/aggregatord_main.cc) is this class plus
// flag parsing and signal handling.

#ifndef PRIVAPPROX_DEPLOY_AGGREGATOR_DAEMON_H_
#define PRIVAPPROX_DEPLOY_AGGREGATOR_DAEMON_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "aggregator/aggregator.h"
#include "broker/broker.h"
#include "deploy/endpoint.h"
#include "metrics/metrics.h"
#include "storage/partition_log.h"
#include "transport/message_bus.h"
#include "transport/tcp_bus.h"

namespace privapprox::deploy {

struct AggregatorDaemonConfig {
  // One endpoint per proxy daemon, indexed by proxy index.
  std::vector<Endpoint> proxies;
  // Estimator inputs — must match the fleet they describe for results to be
  // comparable with an in-process run (population = number of clients).
  size_t population = 0;
  double confidence = 0.95;
  bool answers_inverted = false;
  std::string bind_host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral
  // Durability root. Empty = no journal, and every drain releases the
  // drained proxy out-topics. Non-empty = query announcements journal to
  // <data_dir>/query_journal, the constructor replays them, and the
  // proxies keep the out-topics for the re-drain.
  std::string data_dir;
  storage::PartitionLogOptions log;
};

class AggregatorDaemon {
 public:
  explicit AggregatorDaemon(AggregatorDaemonConfig config);
  ~AggregatorDaemon();

  AggregatorDaemon(const AggregatorDaemon&) = delete;
  AggregatorDaemon& operator=(const AggregatorDaemon&) = delete;

  void Start();
  void Stop();
  uint16_t port() const;

  std::string MetricsText() { return registry_.RenderText(); }

 private:
  std::vector<uint8_t> HandleControl(const std::string& verb,
                                     std::span<const uint8_t> payload);
  // Registers the announcement's query (no-op if the QID already has a
  // lane). `journal` = append the bytes to the query journal first — true on
  // the control verb, false during replay. Returns whether it registered.
  bool RegisterAnnouncement(std::span<const uint8_t> announcement,
                            bool journal);

  AggregatorDaemonConfig config_;
  metrics::Registry registry_;
  // The control server fronts this (otherwise unused) broker — the daemon's
  // topic traffic all flows through the proxy-bound TCP clients below.
  broker::Broker control_broker_;
  std::vector<std::unique_ptr<transport::TcpBusClient>> proxy_buses_;
  transport::TopicRouterBus router_;
  std::unique_ptr<aggregator::Aggregator> aggregator_;
  std::vector<aggregator::WindowedResult> results_;
  // Query journal; null when data_dir is empty.
  std::unique_ptr<storage::PartitionLog> journal_;
  std::unique_ptr<transport::TcpBusServer> server_;
};

}  // namespace privapprox::deploy

#endif  // PRIVAPPROX_DEPLOY_AGGREGATOR_DAEMON_H_
