#include "system/proxy_node.h"

#include <sstream>
#include <stdexcept>

#include "transport/wire.h"

namespace privapprox::system {

namespace {

proxy::ProxyConfig WithRegistry(proxy::ProxyConfig config,
                                metrics::Registry& registry) {
  config.registry = &registry;
  return config;
}

}  // namespace

ProxyNode::ProxyNode(proxy::ProxyConfig config, metrics::Registry& registry,
                     transport::MessageBus& bus, broker::Broker& broker)
    : registry_(registry),
      broker_(broker),
      proxy_(WithRegistry(std::move(config), registry), bus) {}

std::string ProxyNode::SnapshotOffsetsText() const {
  std::ostringstream out;
  out << "proxy " << proxy_.index() << "\n";
  for (const std::string& name : broker_.TopicNames()) {
    const broker::Topic& topic = broker_.GetTopic(name);
    out << "topic " << name << " end=";
    for (size_t p = 0; p < topic.num_partitions(); ++p) {
      out << (p != 0 ? "," : "") << topic.EndOffset(p);
    }
    out << "\n";
  }
  for (const uint64_t qid : proxy_.lane_ids()) {
    out << "lane q" << qid << " consumed=";
    const std::vector<uint64_t> offsets = proxy_.LaneInOffsets(qid);
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

std::vector<uint8_t> ProxyNode::HandleControl(
    const std::string& verb, std::span<const uint8_t> payload) {
  std::vector<uint8_t> response;
  if (verb == "ping") {
    return response;
  }
  if (verb == "ensure_lane") {
    transport::WireReader reader(payload);
    proxy_.EnsureLane(reader.TakeU64());
    return response;
  }
  if (verb == "forward_lanes") {
    transport::PutU64(proxy_.ForwardLanes(), response);
    return response;
  }
  if (verb == "forward_queries") {
    transport::PutU64(proxy_.ForwardQueries(), response);
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
    // Lane inbound topics have exactly one consumer — this proxy — so its
    // forward offsets are their low-watermark.
    for (const uint64_t qid : proxy_.lane_ids()) {
      broker::Topic& in = broker_.GetTopic(proxy_.lane_in_topic(qid));
      const std::vector<uint64_t> offsets = proxy_.LaneInOffsets(qid);
      for (size_t p = 0; p < offsets.size(); ++p) {
        deleted += in.AdvanceWatermark(p, offsets[p]);
      }
    }
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
  throw std::invalid_argument("ProxyNode: unknown control verb '" + verb +
                              "'");
}

}  // namespace privapprox::system
