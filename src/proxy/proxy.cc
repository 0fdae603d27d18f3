#include "proxy/proxy.h"

#include <charconv>
#include <stdexcept>

namespace privapprox::proxy {

std::string TopicPrefix(size_t proxy_index) {
  return "proxy" + std::to_string(proxy_index) + ".";
}

std::string LaneInTopic(size_t proxy_index, uint64_t query_id) {
  return TopicPrefix(proxy_index) + "q" + std::to_string(query_id) + ".in";
}

std::string LaneOutTopic(size_t proxy_index, uint64_t query_id) {
  return TopicPrefix(proxy_index) + "q" + std::to_string(query_id) + ".out";
}

std::string QueryInTopic(size_t proxy_index) {
  return TopicPrefix(proxy_index) + "query.in";
}

std::string QueryOutTopic(size_t proxy_index) {
  return TopicPrefix(proxy_index) + "query.out";
}

uint64_t LaneInQueryId(size_t proxy_index, std::string_view topic) {
  // "<prefix>q<digits>.in"; the announcement topics ("<prefix>query.in")
  // share the "q", so only an all-digit ID counts.
  const std::string prefix = TopicPrefix(proxy_index) + "q";
  const std::string_view suffix = ".in";
  if (topic.size() <= prefix.size() + suffix.size() ||
      !topic.starts_with(prefix) || !topic.ends_with(suffix)) {
    return 0;
  }
  const std::string_view digits = topic.substr(
      prefix.size(), topic.size() - prefix.size() - suffix.size());
  uint64_t query_id = 0;
  const auto [end, error] =
      std::from_chars(digits.data(), digits.data() + digits.size(), query_id);
  return error == std::errc() && end == digits.data() + digits.size()
             ? query_id
             : 0;
}

namespace {

metrics::Labels IndexLabel(const ProxyConfig& config) {
  return {{"proxy", std::to_string(config.proxy_index)}};
}

}  // namespace

Proxy::Proxy(ProxyConfig config, transport::MessageBus& bus)
    : config_(std::move(config)),
      bus_(bus),
      owned_registry_(config_.registry == nullptr
                          ? std::make_unique<metrics::Registry>()
                          : nullptr),
      registry_(config_.registry != nullptr ? *config_.registry
                                            : *owned_registry_),
      forwarded_(registry_.GetCounter(
          "privapprox_proxy_forwarded_total",
          "Records the proxy moved inbound -> outbound", IndexLabel(config_))),
      forward_ns_(registry_.GetHistogram(
          "privapprox_proxy_forward_ns",
          "Proxy forward pass latency in nanoseconds", IndexLabel(config_))),
      query_in_topic_(QueryInTopic(config_.proxy_index)),
      query_out_topic_(QueryOutTopic(config_.proxy_index)) {
  bus_.EnsureTopic(query_in_topic_, 1);
  bus_.EnsureTopic(query_out_topic_, 1);
  query_consumer_ =
      std::make_unique<transport::BusConsumer>(bus_, query_in_topic_);
}

void Proxy::EnsureLane(uint64_t query_id) {
  if (query_id == 0) {
    throw std::invalid_argument("Proxy::EnsureLane: query id 0");
  }
  if (lanes_.count(query_id) != 0) {
    return;
  }
  Lane lane;
  lane.in_topic = LaneInTopic(config_.proxy_index, query_id);
  lane.out_topic = LaneOutTopic(config_.proxy_index, query_id);
  bus_.EnsureTopic(lane.in_topic, config_.num_partitions);
  bus_.EnsureTopic(lane.out_topic, config_.num_partitions);
  lane.consumer = std::make_unique<transport::BusConsumer>(bus_, lane.in_topic);
  lanes_.emplace(query_id, std::move(lane));
}

std::vector<uint64_t> Proxy::lane_ids() const {
  std::vector<uint64_t> ids;
  ids.reserve(lanes_.size());
  for (const auto& [qid, lane] : lanes_) {
    ids.push_back(qid);
  }
  return ids;
}

void Proxy::SyncConsumersToOutbound() {
  const auto sync = [this](transport::BusConsumer& consumer,
                           const std::string& out_topic) {
    for (size_t p = 0; p < consumer.num_partitions(); ++p) {
      consumer.Seek(p, bus_.EndOffset(out_topic, p));
    }
  };
  sync(*query_consumer_, query_out_topic_);
  for (auto& [qid, lane] : lanes_) {
    sync(*lane.consumer, lane.out_topic);
  }
}

std::vector<uint64_t> Proxy::LaneInOffsets(uint64_t query_id) const {
  const Lane& lane = GetLane(query_id, "Proxy::LaneInOffsets");
  std::vector<uint64_t> offsets;
  offsets.reserve(lane.consumer->num_partitions());
  for (size_t p = 0; p < lane.consumer->num_partitions(); ++p) {
    offsets.push_back(lane.consumer->offset(p));
  }
  return offsets;
}

const Proxy::Lane& Proxy::GetLane(uint64_t query_id,
                                  const char* caller) const {
  const auto it = lanes_.find(query_id);
  if (it == lanes_.end()) {
    throw std::invalid_argument(std::string(caller) + ": no lane for query " +
                                std::to_string(query_id));
  }
  return it->second;
}

Proxy::Lane& Proxy::GetLane(uint64_t query_id, const char* caller) {
  return const_cast<Lane&>(
      static_cast<const Proxy*>(this)->GetLane(query_id, caller));
}

const std::string& Proxy::lane_in_topic(uint64_t query_id) const {
  return GetLane(query_id, "Proxy::lane_in_topic").in_topic;
}

const std::string& Proxy::lane_out_topic(uint64_t query_id) const {
  return GetLane(query_id, "Proxy::lane_out_topic").out_topic;
}

void Proxy::Receive(uint64_t query_id,
                    std::span<const broker::ProduceView> records) {
  bus_.Produce(GetLane(query_id, "Proxy::Receive").in_topic, records);
}

uint64_t Proxy::ForwardPendingViews(transport::BusConsumer& consumer,
                                    const std::string& out_topic) {
  const metrics::ScopedTimer timer(forward_ns_);
  uint64_t total = 0;
  for (;;) {
    fwd_views_.clear();
    if (consumer.PollInto(4096, fwd_views_) == 0) {
      break;
    }
    total += fwd_views_.size();
    fwd_produce_.clear();
    fwd_produce_.reserve(fwd_views_.size());
    for (const auto& view : fwd_views_) {
      fwd_produce_.push_back(
          broker::ProduceView{view.key, view.bytes(), view.timestamp_ms});
    }
    bus_.Produce(out_topic, fwd_produce_);
  }
  forwarded_.Increment(total);
  return total;
}

uint64_t Proxy::ForwardLanes() {
  uint64_t total = 0;
  for (auto& [qid, lane] : lanes_) {
    total += ForwardPendingViews(*lane.consumer, lane.out_topic);
    lane.consumer->ReleaseConsumed();
  }
  return total;
}

uint64_t Proxy::ForwardQueries() {
  uint64_t count = 0;
  std::vector<broker::RecordView> batch;
  std::vector<broker::ProduceView> produce;
  for (;;) {
    batch.clear();
    if (query_consumer_->PollInto(64, batch) == 0) {
      break;
    }
    produce.clear();
    for (const auto& record : batch) {
      produce.push_back(
          broker::ProduceView{record.key, record.bytes(), record.timestamp_ms});
    }
    bus_.Produce(query_out_topic_, produce);
    count += batch.size();
  }
  return count;
}

std::vector<uint8_t> Proxy::EncodeShare(const crypto::MessageShare& share) {
  std::vector<uint8_t> out;
  out.reserve(8 + share.payload.size());
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(share.message_id >> (8 * i)));
  }
  out.insert(out.end(), share.payload.begin(), share.payload.end());
  return out;
}

crypto::MessageShare Proxy::DecodeShare(std::span<const uint8_t> bytes) {
  if (bytes.size() < 8) {
    throw std::invalid_argument("Proxy::DecodeShare: truncated share");
  }
  crypto::MessageShare share;
  for (int i = 0; i < 8; ++i) {
    share.message_id |= static_cast<uint64_t>(bytes[i]) << (8 * i);
  }
  share.payload.assign(bytes.begin() + 8, bytes.end());
  return share;
}

void Proxy::DecodeShares(std::span<const broker::RecordView> records,
                         DecodedShares& out) {
  out.shares.reserve(out.shares.size() + records.size());
  for (const auto& record : records) {
    if (record.payload_len < 8) {
      ++out.malformed;
      continue;
    }
    uint64_t mid = 0;
    for (int i = 0; i < 8; ++i) {
      mid |= static_cast<uint64_t>(record.payload[i]) << (8 * i);
    }
    if (mid != record.key) {
      ++out.malformed;
      continue;
    }
    out.shares.push_back(DecodedShare{
        mid,
        std::span<const uint8_t>(record.payload + 8, record.payload_len - 8),
        record.timestamp_ms});
  }
}

}  // namespace privapprox::proxy
