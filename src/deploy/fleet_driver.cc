#include "deploy/fleet_driver.h"

#include <span>
#include <stdexcept>

#include "proxy/proxy.h"
#include "transport/wire.h"

namespace privapprox::deploy {

FleetDriver::FleetDriver(FleetDriverConfig config)
    : config_(std::move(config)) {
  if (config_.num_clients == 0) {
    throw std::invalid_argument("FleetDriver: need >= 1 client");
  }
  if (config_.proxies.size() < 2) {
    throw std::invalid_argument("FleetDriver: need >= 2 proxies");
  }

  const transport::TransportCounters counters =
      transport::RegisterClientCounters(registry_);
  const auto dial = [&counters](const Endpoint& endpoint) {
    transport::TcpBusClientConfig client_config;
    client_config.host = endpoint.host;
    client_config.port = endpoint.port;
    client_config.counters = counters;
    return std::make_unique<transport::TcpBusClient>(client_config);
  };
  // Every verb goes out with the configured retries: each is idempotent,
  // and a restarted daemon costs its client one failed call per connection.
  const auto control = [this](transport::TcpBusClient& bus) {
    return [this, &bus](const std::string& verb,
                        std::span<const uint8_t> payload) {
      return ControlWithRetry(bus, verb, payload);
    };
  };

  system::EpochDriverConfig driver_config;
  driver_config.num_clients = config_.num_clients;
  driver_config.seed = config_.seed;
  driver_config.invert_answers = config_.invert_answers;
  driver_config.budget = config_.budget;
  for (const Endpoint& endpoint : config_.proxies) {
    proxy_buses_.push_back(dial(endpoint));
    driver_config.proxies.push_back(system::NodeEndpoint{
        proxy_buses_.back().get(), control(*proxy_buses_.back())});
  }
  aggregator_bus_ = dial(config_.aggregator);
  driver_config.aggregator = control(*aggregator_bus_);
  driver_config.after_produce_hook = config_.after_produce_hook;
  driver_config.before_drain_hook = config_.before_drain_hook;
  driver_ = std::make_unique<system::EpochDriver>(std::move(driver_config),
                                                  registry_);
}

FleetDriver::~FleetDriver() = default;

FleetEpochStats FleetDriver::RunEpoch(int64_t now_ms) {
  const system::EpochStats stats = driver_->RunEpoch(now_ms);
  return FleetEpochStats{stats.participants, stats.shares_sent,
                         stats.shares_forwarded, stats.shares_consumed};
}

std::vector<uint8_t> FleetDriver::ControlWithRetry(
    transport::TcpBusClient& bus, const std::string& verb,
    std::span<const uint8_t> payload) {
  for (size_t attempt = 0;; ++attempt) {
    try {
      return bus.Control(verb, payload);
    } catch (const std::exception&) {
      if (attempt >= config_.control_retries) {
        throw;
      }
      // The client re-dials on the next call (with its own backoff window),
      // so the retry itself is the recovery wait.
    }
  }
}

uint64_t FleetDriver::AdvanceRetention() {
  // source_offsets response: u32 n, n x {string topic, u32 k, k x u64}.
  const std::vector<uint8_t> reply =
      ControlWithRetry(*aggregator_bus_, "source_offsets", {});
  transport::WireReader reader(reply);
  // Regroup by hosting proxy: a topic under proxy::TopicPrefix(j) belongs to
  // proxy_buses_[j]. Payload format to each proxy mirrors the response.
  std::vector<std::vector<uint8_t>> payloads(proxy_buses_.size());
  std::vector<uint32_t> counts(proxy_buses_.size(), 0);
  const uint32_t num_topics = reader.TakeU32();
  for (uint32_t i = 0; i < num_topics; ++i) {
    const std::string topic = reader.TakeString();
    const uint32_t num_parts = reader.TakeU32();
    size_t owner = 0;
    while (owner < proxy_buses_.size() &&
           !topic.starts_with(proxy::TopicPrefix(owner))) {
      ++owner;
    }
    if (owner == proxy_buses_.size()) {
      throw std::logic_error("FleetDriver::AdvanceRetention: unroutable " +
                             topic);
    }
    ++counts[owner];
    transport::PutString(topic, payloads[owner]);
    transport::PutU32(num_parts, payloads[owner]);
    for (uint32_t p = 0; p < num_parts; ++p) {
      transport::PutU64(reader.TakeU64(), payloads[owner]);
    }
  }
  uint64_t deleted = 0;
  for (size_t j = 0; j < proxy_buses_.size(); ++j) {
    std::vector<uint8_t> payload;
    transport::PutU32(counts[j], payload);
    payload.insert(payload.end(), payloads[j].begin(), payloads[j].end());
    const std::vector<uint8_t> proxy_reply =
        ControlWithRetry(*proxy_buses_[j], "advance_watermark", payload);
    transport::WireReader proxy_reader(proxy_reply);
    deleted += proxy_reader.TakeU64();
  }
  return deleted;
}

std::string FleetDriver::ProxySnapshotText(size_t proxy_index) {
  const std::vector<uint8_t> reply =
      ControlWithRetry(*proxy_buses_.at(proxy_index), "snapshot_offsets", {});
  return std::string(reply.begin(), reply.end());
}

std::string FleetDriver::AggregatorSnapshotText() {
  const std::vector<uint8_t> reply =
      ControlWithRetry(*aggregator_bus_, "snapshot_offsets", {});
  return std::string(reply.begin(), reply.end());
}

std::string FleetDriver::ProxyMetricsText(size_t proxy_index) {
  const std::vector<uint8_t> reply =
      proxy_buses_.at(proxy_index)->Control("metrics", {});
  return std::string(reply.begin(), reply.end());
}

std::string FleetDriver::AggregatorMetricsText() {
  const std::vector<uint8_t> reply = aggregator_bus_->Control("metrics", {});
  return std::string(reply.begin(), reply.end());
}

}  // namespace privapprox::deploy
