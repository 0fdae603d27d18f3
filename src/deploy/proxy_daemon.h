// The proxy as a standalone process: one broker::Broker + proxy::Proxy pair
// behind a TcpBusServer.
//
// Clients (the fleet driver) produce shares straight into the proxy's lane
// inbound topics over the data opcodes; the aggregator daemon polls the
// lane outbound topics the same way. The proxy's own state transitions —
// lane creation, forwarding — are driven by control verbs, which execute on
// the server's single event-loop thread, so the proxy (whose consumer
// offsets are single-writer state) needs no locking:
//
//   ensure_lane        u64 QID            -> (empty)
//   forward_lanes      (empty)            -> u64 records forwarded
//   forward_queries    (empty)            -> u64 announcements forwarded
//   advance_watermark  u32 n, n x {str topic, u32 k, k x u64 offset}
//                                         -> u64 segments deleted
//   snapshot_offsets   (empty)            -> text offset dump (CI artifact)
//   metrics            (empty)            -> Prometheus text exposition
//   ping               (empty)            -> (empty)
//
// Durability: with a non-empty data_dir the daemon's broker spills every
// topic to disk (per-partition segment logs) and the constructor recovers a
// previous incarnation's state — topics replayed, lanes rediscovered from
// the recovered topic names, and every lane consumer seeked to its outbound
// topic's recovered end offset (forwarding preserves per-partition order
// and mapping, so out-end == records already forwarded). advance_watermark
// carries the aggregator's consumed offsets per out topic; the daemon trims
// those out-topic segments and each lane's in-topic segments below the
// proxy's own forward offsets.
//
// Memory: each lane topic's one consumer releases what it has consumed
// (transport::MessageBus::Release). The proxy releases its lane inbound
// topics as forward_lanes forwards them. The aggregator daemon releases
// the lane outbound topics over the wire after each drain, unless it is
// durable: a restarted durable aggregator daemon re-drains them from
// offset zero, so they stay in memory until aggregator checkpoints exist.
//
// privapprox_proxyd (deploy/proxyd_main.cc) is this class plus flag parsing
// and signal handling.

#ifndef PRIVAPPROX_DEPLOY_PROXY_DAEMON_H_
#define PRIVAPPROX_DEPLOY_PROXY_DAEMON_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "metrics/metrics.h"
#include "proxy/proxy.h"
#include "storage/partition_log.h"
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
  std::vector<uint8_t> HandleControl(const std::string& verb,
                                     std::span<const uint8_t> payload);
  // Re-creates the lanes a previous incarnation had, from the recovered
  // topic names, then repositions every consumer. Constructor-only.
  void RecoverLanes(const std::vector<std::string>& recovered_topics);
  // Calls fn(topic, partition, offset) for every lane inbound partition at
  // the proxy's forward offset, the partition's low watermark.
  void ForEachLaneInWatermark(
      const std::function<void(broker::Topic&, size_t, uint64_t)>& fn);
  std::string SnapshotOffsetsText() const;

  ProxyDaemonConfig config_;
  metrics::Registry registry_;
  broker::Broker broker_;
  transport::InProcessBus bus_{broker_};  // the proxy's view of broker_
  std::unique_ptr<proxy::Proxy> proxy_;
  std::unique_ptr<transport::TcpBusServer> server_;
};

}  // namespace privapprox::deploy

#endif  // PRIVAPPROX_DEPLOY_PROXY_DAEMON_H_
