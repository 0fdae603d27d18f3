#include "deploy/proxy_daemon.h"

namespace privapprox::deploy {

ProxyDaemon::ProxyDaemon(ProxyDaemonConfig config) : config_(std::move(config)) {
  std::vector<std::string> recovered_topics;
  if (!config_.data_dir.empty()) {
    broker_.EnableDurability({config_.data_dir, config_.log});
    recovered_topics = broker_.RecoverTopics();
  }

  proxy::ProxyConfig proxy_config;
  proxy_config.proxy_index = config_.proxy_index;
  proxy_config.num_partitions = config_.num_partitions;
  node_ = std::make_unique<system::ProxyNode>(proxy_config, registry_, bus_,
                                              broker_);

  if (!config_.data_dir.empty()) {
    RecoverLanes(recovered_topics);
  }
  broker::AddBrokerCollector(registry_, broker_);

  transport::TcpBusServerConfig server_config;
  server_config.bind_host = config_.bind_host;
  server_config.port = config_.port;
  server_config.counters.frames_in = &registry_.GetCounter(
      "privapprox_transport_frames_in_total", "Request frames received");
  server_config.counters.frames_out = &registry_.GetCounter(
      "privapprox_transport_frames_out_total", "Response frames sent");
  server_config.counters.bytes_in = &registry_.GetCounter(
      "privapprox_transport_bytes_in_total", "Bytes received from peers");
  server_config.counters.bytes_out = &registry_.GetCounter(
      "privapprox_transport_bytes_out_total", "Bytes sent to peers");
  server_config.counters.accepts = &registry_.GetCounter(
      "privapprox_transport_accepts_total", "Connections accepted");
  server_config.counters.disconnects = &registry_.GetCounter(
      "privapprox_transport_disconnects_total", "Peers hung up");
  server_config.counters.protocol_errors = &registry_.GetCounter(
      "privapprox_transport_protocol_errors_total",
      "Connections quarantined for framing errors");
  server_ = std::make_unique<transport::TcpBusServer>(
      server_config, &broker_,
      [node = node_.get()](const std::string& verb,
                           std::span<const uint8_t> payload) {
        return node->HandleControl(verb, payload);
      });
}

void ProxyDaemon::RecoverLanes(
    const std::vector<std::string>& recovered_topics) {
  // A previous incarnation's lanes are encoded in its topic names.
  for (const std::string& name : recovered_topics) {
    if (const uint64_t qid = proxy::LaneInQueryId(config_.proxy_index, name)) {
      node_->proxy().EnsureLane(qid);
    }
  }
  // Reposition every consumer past the records a previous incarnation
  // already forwarded (out-end == records forwarded; see proxy.h).
  node_->proxy().SyncConsumersToOutbound();
}

ProxyDaemon::~ProxyDaemon() { Stop(); }

void ProxyDaemon::Start() { server_->Start(); }

void ProxyDaemon::Stop() { server_->Stop(); }

uint16_t ProxyDaemon::port() const { return server_->port(); }

}  // namespace privapprox::deploy
