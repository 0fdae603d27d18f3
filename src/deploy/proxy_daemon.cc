#include "deploy/proxy_daemon.h"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "transport/wire.h"

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
  proxy_config.registry = &registry_;
  proxy_ = std::make_unique<proxy::Proxy>(proxy_config, bus_);

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
      server_config, broker_,
      [this](const std::string& verb, std::span<const uint8_t> payload) {
        return HandleControl(verb, payload);
      });
}

void ProxyDaemon::RecoverLanes(
    const std::vector<std::string>& recovered_topics) {
  // A previous incarnation's lanes are encoded in its topic names:
  // "<prefix>.q<ID>.in". The query topics also match the ".q" prefix
  // ("proxy0.query.in"), so only all-digit IDs count.
  const std::string prefix =
      "proxy" + std::to_string(config_.proxy_index) + ".q";
  const std::string suffix = ".in";
  for (const std::string& name : recovered_topics) {
    if (name.size() <= prefix.size() + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    const std::string id_str = name.substr(
        prefix.size(), name.size() - prefix.size() - suffix.size());
    if (id_str.empty() ||
        id_str.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    proxy_->EnsureLane(std::strtoull(id_str.c_str(), nullptr, 10));
  }
  // Reposition every consumer past the records a previous incarnation
  // already forwarded (out-end == records forwarded; see proxy.h).
  proxy_->SyncConsumersToOutbound();
}

std::string ProxyDaemon::SnapshotOffsetsText() const {
  std::ostringstream out;
  out << "proxy " << config_.proxy_index << "\n";
  for (const std::string& name : broker_.TopicNames()) {
    const broker::Topic& topic = broker_.GetTopic(name);
    out << "topic " << name << " end=";
    for (size_t p = 0; p < topic.num_partitions(); ++p) {
      out << (p != 0 ? "," : "") << topic.EndOffset(p);
    }
    out << "\n";
  }
  for (const uint64_t qid : proxy_->lane_ids()) {
    out << "lane q" << qid << " consumed=";
    const std::vector<uint64_t> offsets = proxy_->LaneInOffsets(qid);
    for (size_t p = 0; p < offsets.size(); ++p) {
      out << (p != 0 ? "," : "") << offsets[p];
    }
    out << "\n";
  }
  const broker::DurableStats s = broker_.durable_stats();
  out << "storage segments=" << s.segments << " bytes=" << s.bytes
      << " fsyncs=" << s.fsyncs << " recovered_records=" << s.recovered_records
      << " truncated_tails=" << s.truncated_tails << "\n";
  return out.str();
}

void ProxyDaemon::ForEachLaneInWatermark(
    const std::function<void(broker::Topic&, size_t, uint64_t)>& fn) {
  // Lane inbound topics have exactly one consumer — this proxy — so its
  // forward offsets are their low-watermark.
  for (const uint64_t qid : proxy_->lane_ids()) {
    broker::Topic& in = broker_.GetTopic(proxy_->lane_in_topic(qid));
    const std::vector<uint64_t> offsets = proxy_->LaneInOffsets(qid);
    for (size_t p = 0; p < offsets.size(); ++p) {
      fn(in, p, offsets[p]);
    }
  }
}

ProxyDaemon::~ProxyDaemon() { Stop(); }

void ProxyDaemon::Start() { server_->Start(); }

void ProxyDaemon::Stop() { server_->Stop(); }

uint16_t ProxyDaemon::port() const { return server_->port(); }

std::vector<uint8_t> ProxyDaemon::HandleControl(
    const std::string& verb, std::span<const uint8_t> payload) {
  std::vector<uint8_t> response;
  if (verb == "ping") {
    return response;
  }
  if (verb == "ensure_lane") {
    transport::WireReader reader(payload);
    proxy_->EnsureLane(reader.TakeU64());
    return response;
  }
  if (verb == "forward_lanes") {
    transport::PutU64(proxy_->ForwardLanes(), response);
    return response;
  }
  if (verb == "forward_queries") {
    transport::PutU64(proxy_->ForwardQueries(), response);
    return response;
  }
  if (verb == "advance_watermark") {
    // Payload: u32 n, then n x {string topic, u32 k, k x u64 offset} — the
    // aggregator's consumed offsets for this proxy's lane outbound topics.
    transport::WireReader reader(payload);
    uint64_t deleted = 0;
    const uint32_t num_topics = reader.TakeU32();
    for (uint32_t i = 0; i < num_topics; ++i) {
      const std::string topic = reader.TakeString();
      const uint32_t num_parts = reader.TakeU32();
      for (uint32_t p = 0; p < num_parts; ++p) {
        const uint64_t offset = reader.TakeU64();
        if (broker_.HasTopic(topic)) {
          deleted += broker_.GetTopic(topic).AdvanceWatermark(p, offset);
        }
      }
    }
    ForEachLaneInWatermark(
        [&deleted](broker::Topic& in, size_t p, uint64_t offset) {
          deleted += in.AdvanceWatermark(p, offset);
        });
    transport::PutU64(deleted, response);
    return response;
  }
  if (verb == "snapshot_offsets") {
    const std::string text = SnapshotOffsetsText();
    response.assign(text.begin(), text.end());
    return response;
  }
  if (verb == "metrics") {
    const std::string text = registry_.RenderText();
    response.assign(text.begin(), text.end());
    return response;
  }
  throw std::invalid_argument("ProxyDaemon: unknown control verb '" + verb +
                              "'");
}

}  // namespace privapprox::deploy
