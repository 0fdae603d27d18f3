#include "transport/message_bus.h"

#include <stdexcept>

namespace privapprox::transport {

BusConsumer::BusConsumer(MessageBus& bus, std::string topic)
    : bus_(bus), topic_(std::move(topic)) {
  offsets_.assign(bus_.NumPartitions(topic_), 0);
}

size_t BusConsumer::PollInto(size_t max_records,
                             std::vector<broker::RecordView>& out) {
  const size_t start = out.size();
  for (size_t p = 0; p < offsets_.size() && out.size() - start < max_records;
       ++p) {
    // A backend may return partial batches (the TCP client budgets response
    // bytes per round-trip), so drain the partition until it reports empty
    // or the caller's budget is spent.
    for (;;) {
      const size_t budget = max_records - (out.size() - start);
      if (budget == 0) {
        break;
      }
      const size_t pulled = bus_.Poll(topic_, p, offsets_[p], budget, out);
      if (pulled == 0) {
        break;
      }
      offsets_[p] += pulled;
      consumed_ += pulled;
    }
  }
  return out.size() - start;
}

void BusConsumer::Seek(size_t partition, uint64_t offset) {
  offsets_.at(partition) = offset;
}

bool BusConsumer::CaughtUp() {
  for (size_t p = 0; p < offsets_.size(); ++p) {
    if (offsets_[p] < bus_.EndOffset(topic_, p)) {
      return false;
    }
  }
  return true;
}

void BusConsumer::ReleaseConsumed() { bus_.Release(topic_, offsets_); }

void TopicRouterBus::AddRoute(std::string topic_prefix, MessageBus& target) {
  routes_.emplace_back(std::move(topic_prefix), &target);
}

MessageBus& TopicRouterBus::Route(const std::string& topic) {
  MessageBus* best = nullptr;
  size_t best_len = 0;
  for (const auto& [prefix, bus] : routes_) {
    if (topic.starts_with(prefix) &&
        (best == nullptr || prefix.size() > best_len)) {
      best = bus;
      best_len = prefix.size();
    }
  }
  if (best == nullptr) {
    throw std::invalid_argument("TopicRouterBus: no route for topic '" +
                                topic + "'");
  }
  return *best;
}

void TopicRouterBus::EnsureTopic(const std::string& topic,
                                 size_t num_partitions) {
  Route(topic).EnsureTopic(topic, num_partitions);
}

size_t TopicRouterBus::NumPartitions(const std::string& topic) {
  return Route(topic).NumPartitions(topic);
}

void TopicRouterBus::Produce(const std::string& topic,
                             std::span<const broker::ProduceView> records) {
  Route(topic).Produce(topic, records);
}

size_t TopicRouterBus::Poll(const std::string& topic, size_t partition,
                            uint64_t offset, size_t max_records,
                            std::vector<broker::RecordView>& out) {
  return Route(topic).Poll(topic, partition, offset, max_records, out);
}

uint64_t TopicRouterBus::EndOffset(const std::string& topic,
                                   size_t partition) {
  return Route(topic).EndOffset(topic, partition);
}

void TopicRouterBus::Release(const std::string& topic,
                             std::span<const uint64_t> below) {
  Route(topic).Release(topic, below);
}

}  // namespace privapprox::transport
