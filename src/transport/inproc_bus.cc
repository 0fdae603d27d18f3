#include "transport/inproc_bus.h"

#include <stdexcept>

namespace privapprox::transport {

void InProcessBus::EnsureTopic(const std::string& topic,
                               size_t num_partitions) {
  broker_.EnsureTopic(topic, num_partitions);
}

size_t InProcessBus::NumPartitions(const std::string& topic) {
  return broker_.GetTopic(topic).num_partitions();
}

void InProcessBus::Produce(const std::string& topic,
                           std::span<const broker::ProduceView> records) {
  broker_.GetTopic(topic).AppendViews(records);
}

size_t InProcessBus::Poll(const std::string& topic, size_t partition,
                          uint64_t offset, size_t max_records,
                          std::vector<broker::RecordView>& out) {
  const size_t before = out.size();
  broker_.GetTopic(topic).ReadViews(partition, offset, max_records, out);
  return out.size() - before;
}

uint64_t InProcessBus::EndOffset(const std::string& topic, size_t partition) {
  return broker_.GetTopic(topic).EndOffset(partition);
}

void InProcessBus::Release(const std::string& topic,
                           std::span<const uint64_t> below) {
  broker::Topic& t = broker_.GetTopic(topic);
  if (below.size() != t.num_partitions()) {
    throw std::invalid_argument(
        "Release: " + std::to_string(below.size()) + " offsets for topic '" +
        topic + "' of " + std::to_string(t.num_partitions()) +
        " partitions");
  }
  for (size_t p = 0; p < below.size(); ++p) {
    t.Release(p, below[p]);
  }
}

}  // namespace privapprox::transport
