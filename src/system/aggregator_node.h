// The aggregator as a node of either deployment: an aggregator::Aggregator
// over a given MessageBus, the buffer its fired windows wait in, an
// optional query journal, and the control verbs that drive them. The
// in-process system calls HandleControl directly and aggregatord
// (deploy/aggregator_daemon.h) serves it behind a TcpBusServer, so the two
// deployments differ only in transport (DESIGN.md §6j):
//
//   register_query     announcement bytes          -> (empty)
//   update_params      announcement bytes          -> (empty)
//   drain              (empty)                     -> u64 shares consumed
//   note_lost_mids     u64 QID, u64 now ms, u32 n, n x u64 MID -> (empty)
//   advance_watermark  u64 (bit-cast i64 ms)       -> (empty)
//   flush              (empty)                     -> (empty)
//   take_results       (empty)                     -> result_wire bytes
//   source_offsets     (empty)                     -> u32 n, n x {str topic,
//                                                    u32 k, k x u64 offset}
//   snapshot_offsets   (empty)                     -> text offset dump
//   metrics            (empty)                     -> Prometheus text
//   ping               (empty)                     -> (empty)
//
// A lane's sources are the query's lane out-topic at every proxy. The
// announcement is the registration unit — the bytes every client parses.
// register_query skips a known QID without journaling it again;
// register_query and update_params refuse what cannot be applied (what
// core::ValidateAnnouncement rejects, sources that are not co-partitioned,
// an update for an unknown QID) before journaling it.
//
// The journal (a storage::PartitionLog of announcements, fsynced per
// append) is replayed by the constructor: a QID's first record registers
// the query and every later one is an update, which holds because a
// register for a known QID returns before it journals. The lane consumers
// restart at offset zero and re-consume the sources, so a journaled node
// never releases them after a drain, and an interrupted run converges to
// the uninterrupted result only as long as windows fired at flush alone.
// The aggregator is single-threaded by contract (its drain fans out on its
// own pool), so a node's verbs must run on one thread at a time.

#ifndef PRIVAPPROX_SYSTEM_AGGREGATOR_NODE_H_
#define PRIVAPPROX_SYSTEM_AGGREGATOR_NODE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "aggregator/aggregator.h"
#include "core/query_wire.h"
#include "metrics/metrics.h"
#include "storage/partition_log.h"
#include "transport/message_bus.h"

namespace privapprox::system {

class AggregatorNode {
 public:
  // The aggregator registers its families on `registry`, which the metrics
  // verb renders; both it and `bus` outlive the node.
  AggregatorNode(aggregator::AggregatorConfig config,
                 metrics::Registry& registry, transport::MessageBus& bus,
                 std::unique_ptr<storage::PartitionLog> journal = nullptr);

  AggregatorNode(const AggregatorNode&) = delete;
  AggregatorNode& operator=(const AggregatorNode&) = delete;

  aggregator::Aggregator& aggregator() { return aggregator_; }
  // Fired windows not yet taken (take_results empties it).
  const std::vector<aggregator::WindowedResult>& results() const {
    return results_;
  }

  // Runs one verb. Throws for an unknown verb or a malformed payload, which
  // then changes nothing.
  std::vector<uint8_t> HandleControl(const std::string& verb,
                                     std::span<const uint8_t> payload);

 private:
  void Apply(std::span<const uint8_t> announcement, bool update);
  aggregator::QueryLaneOptions Sources(uint64_t query_id) const;
  std::string SnapshotOffsetsText() const;

  size_t num_proxies_;
  metrics::Registry& registry_;
  std::vector<aggregator::WindowedResult> results_;
  aggregator::Aggregator aggregator_;
  std::unique_ptr<storage::PartitionLog> journal_;  // null: none
};

}  // namespace privapprox::system

#endif  // PRIVAPPROX_SYSTEM_AGGREGATOR_NODE_H_
