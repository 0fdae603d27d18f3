// A proxy as a node of either deployment: a proxy::Proxy over a given
// MessageBus and broker, and the control verbs that drive it. Shares and
// announcements reach the proxy's topics as produces; everything else is a
// verb. The in-process system calls HandleControl directly and proxyd
// (deploy/proxy_daemon.h) serves it behind a TcpBusServer, so the two
// deployments differ only in transport (DESIGN.md §6j):
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
// advance_watermark is retention: it trims each listed lane out-topic below
// the aggregator's consumed offsets and each lane in-topic below the
// proxy's forward offsets. The proxy's consumer offsets are single-writer
// state, so a node's verbs must run on one thread at a time.

#ifndef PRIVAPPROX_SYSTEM_PROXY_NODE_H_
#define PRIVAPPROX_SYSTEM_PROXY_NODE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "metrics/metrics.h"
#include "proxy/proxy.h"
#include "transport/message_bus.h"

namespace privapprox::system {

class ProxyNode {
 public:
  // The proxy registers its families on `registry`, which the metrics verb
  // renders; `bus` is its view of `broker`. All three outlive the node.
  ProxyNode(proxy::ProxyConfig config, metrics::Registry& registry,
            transport::MessageBus& bus, broker::Broker& broker);

  ProxyNode(const ProxyNode&) = delete;
  ProxyNode& operator=(const ProxyNode&) = delete;

  proxy::Proxy& proxy() { return proxy_; }

  // Runs one verb. Throws for an unknown verb or a malformed payload.
  std::vector<uint8_t> HandleControl(const std::string& verb,
                                     std::span<const uint8_t> payload);

 private:
  std::string SnapshotOffsetsText() const;

  metrics::Registry& registry_;
  broker::Broker& broker_;
  proxy::Proxy proxy_;
};

}  // namespace privapprox::system

#endif  // PRIVAPPROX_SYSTEM_PROXY_NODE_H_
