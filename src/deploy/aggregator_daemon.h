// The aggregator as a standalone process: a system::AggregatorNode over a
// TopicRouterBus of TcpBusClients — one dialed at each proxy daemon, routed
// by proxy::TopicPrefix — plus a control TcpBusServer that serves the
// node's verbs (system/aggregator_node.h) on its event-loop thread. A lane
// has one join shard per partition of the proxies' lane topics (proxyd's
// --partitions), drained one after another: the daemon runs no worker
// pool. After each drain the daemon also ends the life of every record
// view its proxy buses polled (TcpBusClient::ReleasePolled): the join keeps
// copies of what it parks. With a non-empty data_dir the node keeps its
// query journal at <data_dir>/query_journal.
//
// privapprox_aggregatord (deploy/aggregatord_main.cc) is this class plus
// flag parsing and signal handling.

#ifndef PRIVAPPROX_DEPLOY_AGGREGATOR_DAEMON_H_
#define PRIVAPPROX_DEPLOY_AGGREGATOR_DAEMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "deploy/endpoint.h"
#include "metrics/metrics.h"
#include "storage/partition_log.h"
#include "system/aggregator_node.h"
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
  AggregatorDaemonConfig config_;
  metrics::Registry registry_;
  std::vector<std::unique_ptr<transport::TcpBusClient>> proxy_buses_;
  transport::TopicRouterBus router_;
  std::unique_ptr<system::AggregatorNode> node_;
  std::unique_ptr<transport::TcpBusServer> server_;
};

}  // namespace privapprox::deploy

#endif  // PRIVAPPROX_DEPLOY_AGGREGATOR_DAEMON_H_
