// The proxy as a standalone process: a system::ProxyNode over the daemon's
// own broker::Broker, behind a TcpBusServer. Clients (the fleet driver)
// produce shares straight into the proxy's lane inbound topics; the
// aggregator daemon polls the lane outbound topics the same way. Everything
// else is the node's verbs (system/proxy_node.h), which run on the
// server's single event-loop thread.
//
// Durability: with a non-empty data_dir the broker spills every topic to
// disk (per-partition segment logs), and the constructor recovers a
// previous incarnation's state — topics replayed, lanes rediscovered from
// the recovered topic names (proxy::LaneInQueryId), and every lane consumer
// seeked to its outbound topic's recovered end offset (forwarding preserves
// per-partition order and mapping, so out-end == records already
// forwarded).
//
// privapprox_proxyd (deploy/proxyd_main.cc) is this class plus flag parsing
// and signal handling.

#ifndef PRIVAPPROX_DEPLOY_PROXY_DAEMON_H_
#define PRIVAPPROX_DEPLOY_PROXY_DAEMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "metrics/metrics.h"
#include "storage/partition_log.h"
#include "system/proxy_node.h"
#include "transport/inproc_bus.h"
#include "transport/tcp_bus.h"

namespace privapprox::deploy {

struct ProxyDaemonConfig {
  size_t proxy_index = 0;
  size_t num_partitions = 4;  // must match the in-process system's proxies
  std::string bind_host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; read the bound port with port()
  // Durability root. Empty = memory-only topics, byte-identical to a daemon
  // without the durable log. Non-empty = the broker spills every topic to
  // <data_dir>/<topic>/p<k> and the constructor runs crash recovery.
  std::string data_dir;
  storage::PartitionLogOptions log;
};

class ProxyDaemon {
 public:
  explicit ProxyDaemon(ProxyDaemonConfig config);
  ~ProxyDaemon();

  ProxyDaemon(const ProxyDaemon&) = delete;
  ProxyDaemon& operator=(const ProxyDaemon&) = delete;

  void Start();
  void Stop();
  uint16_t port() const;

  std::string MetricsText() { return registry_.RenderText(); }

 private:
  // Re-creates the lanes a previous incarnation had, from the recovered
  // topic names, then repositions every consumer. Constructor-only.
  void RecoverLanes(const std::vector<std::string>& recovered_topics);

  ProxyDaemonConfig config_;
  metrics::Registry registry_;
  broker::Broker broker_;
  transport::InProcessBus bus_{broker_};  // the proxy's view of broker_
  std::unique_ptr<system::ProxyNode> node_;
  std::unique_ptr<transport::TcpBusServer> server_;
};

}  // namespace privapprox::deploy

#endif  // PRIVAPPROX_DEPLOY_PROXY_DAEMON_H_
