// The in-process MessageBus backend: a thin span-first facade over a
// broker::Broker living in the same process. This is the deterministic-test
// mode — every produce and poll is a direct slab append/read, so runs are
// bit-reproducible and allocation-flat exactly like calling the broker
// directly.

#ifndef PRIVAPPROX_TRANSPORT_INPROC_BUS_H_
#define PRIVAPPROX_TRANSPORT_INPROC_BUS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "transport/message_bus.h"

namespace privapprox::transport {

class InProcessBus final : public MessageBus {
 public:
  explicit InProcessBus(broker::Broker& broker) : broker_(broker) {}

  void EnsureTopic(const std::string& topic, size_t num_partitions) override;
  size_t NumPartitions(const std::string& topic) override;
  void Produce(const std::string& topic,
               std::span<const broker::ProduceView> records) override;
  size_t Poll(const std::string& topic, size_t partition, uint64_t offset,
              size_t max_records, std::vector<broker::RecordView>& out) override;
  uint64_t EndOffset(const std::string& topic, size_t partition) override;
  void Release(const std::string& topic,
               std::span<const uint64_t> below) override;

  broker::Broker& broker() { return broker_; }

 private:
  broker::Broker& broker_;
};

}  // namespace privapprox::transport

#endif  // PRIVAPPROX_TRANSPORT_INPROC_BUS_H_
