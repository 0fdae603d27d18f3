#include "deploy/aggregator_daemon.h"

#include <filesystem>
#include <stdexcept>

#include "proxy/proxy.h"

namespace privapprox::deploy {

AggregatorDaemon::AggregatorDaemon(AggregatorDaemonConfig config)
    : config_(std::move(config)) {
  if (config_.proxies.size() < 2) {
    throw std::invalid_argument("AggregatorDaemon: need at least two proxies");
  }
  // The transport byte and frame families count this daemon's proxy-bus
  // clients; its server counts only accepts, hang-ups and protocol errors.
  const transport::TransportCounters counters =
      transport::RegisterClientCounters(registry_);
  proxy_buses_.reserve(config_.proxies.size());
  for (size_t j = 0; j < config_.proxies.size(); ++j) {
    transport::TcpBusClientConfig client_config;
    client_config.host = config_.proxies[j].host;
    client_config.port = config_.proxies[j].port;
    client_config.counters = counters;
    proxy_buses_.push_back(
        std::make_unique<transport::TcpBusClient>(client_config));
    router_.AddRoute(proxy::TopicPrefix(j), *proxy_buses_[j]);
  }

  aggregator::AggregatorConfig agg_config;
  agg_config.num_proxies = config_.proxies.size();
  agg_config.population = config_.population;
  agg_config.confidence = config_.confidence;
  agg_config.answers_inverted = config_.answers_inverted;
  std::unique_ptr<storage::PartitionLog> journal;
  if (!config_.data_dir.empty()) {
    journal = std::make_unique<storage::PartitionLog>(
        std::filesystem::path(config_.data_dir) / "query_journal",
        config_.log);
  }
  node_ = std::make_unique<system::AggregatorNode>(agg_config, registry_,
                                                   router_, std::move(journal));

  transport::TcpBusServerConfig server_config;
  server_config.bind_host = config_.bind_host;
  server_config.port = config_.port;
  server_config.counters.accepts = &registry_.GetCounter(
      "privapprox_transport_accepts_total", "Connections accepted");
  server_config.counters.disconnects = &registry_.GetCounter(
      "privapprox_transport_disconnects_total", "Peers hung up");
  server_config.counters.protocol_errors = &registry_.GetCounter(
      "privapprox_transport_protocol_errors_total",
      "Connections quarantined for framing errors");
  server_ = std::make_unique<transport::TcpBusServer>(
      server_config, /*broker=*/nullptr,
      [this](const std::string& verb, std::span<const uint8_t> payload) {
        std::vector<uint8_t> reply = node_->HandleControl(verb, payload);
        if (verb == "drain") {
          // The join keeps copies of the shares it parks, so no polled view
          // outlives the drain: the proxy buses may overwrite their slabs.
          for (const auto& bus : proxy_buses_) {
            bus->ReleasePolled();
          }
        }
        return reply;
      });
}

AggregatorDaemon::~AggregatorDaemon() { Stop(); }

void AggregatorDaemon::Start() { server_->Start(); }

void AggregatorDaemon::Stop() { server_->Stop(); }

uint16_t AggregatorDaemon::port() const { return server_->port(); }

}  // namespace privapprox::deploy
