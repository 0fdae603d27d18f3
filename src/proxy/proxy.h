// The proxy runtime (paper §3.2.3, §5).
//
// A PrivApprox proxy does exactly one thing on the answer path: transmit
// opaque shares from clients to the aggregator. There is no noise addition,
// no answer intersection, no shuffling and — crucially — no synchronization
// with the other proxies (contrast: baseline::SplitX). ForwardLanes() moves
// pending records from inbound to outbound topics, which is the operation
// Fig 5b / Fig 8a measure.
//
// Share traffic runs over per-(query, proxy) *lanes* only. A lane is an
// inbound/outbound topic pair named "<prefix>q<QID>.in" / ".out", so a
// record's topic implies its query — batches stay query-pure end to end and
// the hot path never parses a QID out of a payload. Besides its lanes a
// proxy owns one topic pair, "<prefix>query.in"/"query.out", for query
// announcements. The free functions below are the one place these names
// are decided; every other component asks them.
//
// Transport: the proxy speaks transport::MessageBus, never a broker
// directly. In process that is an InProcessBus over the shared broker; in a
// proxy daemon the same code runs against an InProcessBus over the daemon's
// local broker while remote peers reach the topics over TCP.
//
// API shape: span-first. Batched entries take spans of non-owning views
// (arena- or slab-backed) and decode produces spans into broker slab
// storage; the only owning calls are the single-share codec adapters
// (EncodeShare, DecodeShare).

#ifndef PRIVAPPROX_PROXY_PROXY_H_
#define PRIVAPPROX_PROXY_PROXY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/message.h"
#include "metrics/metrics.h"
#include "transport/message_bus.h"

namespace privapprox::proxy {

// --- Topic names ----------------------------------------------------------
// Every topic of proxy j starts with "proxy<j>.".
std::string TopicPrefix(size_t proxy_index);
// Lane topics: "<prefix>q<QID>.in" / ".out".
std::string LaneInTopic(size_t proxy_index, uint64_t query_id);
std::string LaneOutTopic(size_t proxy_index, uint64_t query_id);
// Announcement topics: "<prefix>query.in" / "query.out".
std::string QueryInTopic(size_t proxy_index);
std::string QueryOutTopic(size_t proxy_index);
// The QID of proxy `proxy_index`'s lane in-topic `topic`, or 0 when
// `topic` is not one (the announcement topics included).
uint64_t LaneInQueryId(size_t proxy_index, std::string_view topic);

struct ProxyConfig {
  size_t proxy_index = 0;
  size_t num_partitions = 4;  // Kafka brokers per proxy in the paper's setup
  // Where the proxy registers its families, labelled {proxy="<index>"}:
  // privapprox_proxy_forwarded_total and privapprox_proxy_forward_ns. Not
  // owned; null = a registry private to the proxy.
  metrics::Registry* registry = nullptr;
};

class Proxy {
 public:
  // The bus must outlive the proxy.
  Proxy(ProxyConfig config, transport::MessageBus& bus);

  size_t index() const { return config_.proxy_index; }

  // Creates the per-query lane (topics + consumer) for `query_id` if it
  // does not exist yet. Topics are EnsureTopic'd so a restarted proxy
  // attaches to the lanes its broker recovered. Called through the
  // ensure_lane verb at query submission for every proxy.
  void EnsureLane(uint64_t query_id);
  std::vector<uint64_t> lane_ids() const;  // ascending
  const std::string& lane_in_topic(uint64_t query_id) const;
  const std::string& lane_out_topic(uint64_t query_id) const;

  // Crash-recovery repositioning (called once by a restarted proxy daemon
  // after its broker replayed the durable topics, never in steady state):
  // seeks every consumer — query and per-lane — to its outbound
  // topic's end offset. Valid because a forwarded record keeps its key, the
  // in/out topics share a partition count, and forwarding preserves
  // per-partition order: out partition p holds exactly the records already
  // forwarded from in partition p, so out-end(p) is the count consumed from
  // in-p. Records produced inbound but not yet forwarded before the crash
  // remain pending and go out on the next ForwardLanes.
  void SyncConsumersToOutbound();

  // Per-partition committed offsets of one lane's inbound consumer — the
  // retention low-watermark for that lane's inbound topic (everything below
  // has been forwarded).
  std::vector<uint64_t> LaneInOffsets(uint64_t query_id) const;

  // Produces a batch of pre-encoded shares (keyed by MID) into the query's
  // lane in-topic, which must exist, in one produce call: what a client's
  // produce to that topic does. The views only need to stay valid for the
  // duration of the call — the topic copies each payload once into its
  // slab.
  void Receive(uint64_t query_id, std::span<const broker::ProduceView> records);

  // Transmits all pending inbound records of every lane to its outbound
  // topic, lanes in ascending-QID order, and releases each inbound topic
  // below the forward offsets: the proxy is its only consumer. Returns the
  // number of records forwarded.
  uint64_t ForwardLanes();

  // Query distribution (§3.1, submission phase): the driver produces
  // serialized query announcements into the proxy's query inbound topic;
  // ForwardQueries moves them to the client-facing outbound topic. Proxies
  // treat announcements as opaque bytes, exactly like answer shares.
  uint64_t ForwardQueries();

  // Serialization helpers shared with the aggregator side. DecodeShare is
  // the owning single-record adapter: it parses the 8-byte MID header and
  // copies the remaining bytes into the share's payload.
  static std::vector<uint8_t> EncodeShare(const crypto::MessageShare& share);
  static crypto::MessageShare DecodeShare(std::span<const uint8_t> bytes);

  // Span-first batch decode, the aggregator drain's one decode path, so
  // malformed accounting stays in one place.
  // A decoded share's payload is a span into the record's slab storage,
  // valid as long as the RecordView it came from (until the topic's
  // consumer releases it, once its drain is done), so decoding is just header
  // parsing — no per-share vector. A record shorter than the 8-byte MID
  // header counts as malformed, and so does one whose key is not its MID:
  // it sits in its key's partition, where its MID's other shares never are
  // (every producer keys a share by its MID), so it could never join.
  struct DecodedShare {
    uint64_t message_id = 0;
    std::span<const uint8_t> payload;
    int64_t timestamp_ms = 0;
  };
  struct DecodedShares {
    std::vector<DecodedShare> shares;
    uint64_t malformed = 0;

    void Clear() {
      shares.clear();
      malformed = 0;
    }
  };
  // Decodes slab-backed record views and appends into `out`.
  static void DecodeShares(std::span<const broker::RecordView> records,
                           DecodedShares& out);

  // Records moved inbound -> outbound so far (its forwarded_total family).
  uint64_t forwarded() const { return forwarded_.Value(); }

 private:
  // One per-query topic pair plus the consumer that owns the inbound
  // offsets for this proxy.
  struct Lane {
    std::string in_topic;
    std::string out_topic;
    std::unique_ptr<transport::BusConsumer> consumer;
  };

  // Drains everything pending on `consumer` to `out_topic` over
  // slab-backed views (no payload copies besides the one into the outbound
  // slab). Returns records forwarded.
  uint64_t ForwardPendingViews(transport::BusConsumer& consumer,
                               const std::string& out_topic);
  const Lane& GetLane(uint64_t query_id, const char* caller) const;
  Lane& GetLane(uint64_t query_id, const char* caller);

  ProxyConfig config_;
  transport::MessageBus& bus_;
  // Set only when config_.registry is null; declared before the registry
  // reference and the instruments registered on it.
  std::unique_ptr<metrics::Registry> owned_registry_;
  metrics::Registry& registry_;
  metrics::Counter& forwarded_;
  metrics::Histogram& forward_ns_;  // one observation per forward pass
  std::string query_in_topic_;
  std::string query_out_topic_;
  std::unique_ptr<transport::BusConsumer> query_consumer_;
  std::map<uint64_t, Lane> lanes_;  // QID -> lane, ascending
  // Forwarding scratch, reused across calls so steady-state forwarding
  // performs no heap allocation. Only touched by the single thread that
  // owns this proxy's consumer offsets.
  std::vector<broker::RecordView> fwd_views_;
  std::vector<broker::ProduceView> fwd_produce_;
};

}  // namespace privapprox::proxy

#endif  // PRIVAPPROX_PROXY_PROXY_H_
