// The aggregator runtime (paper §3.2.4, §5).
//
// Consumes the n proxy share streams, joins shares by MID, XOR-decrypts,
// deserializes the randomized answers, adds each to the pane of its event
// time (engine/window.h), and per fired sliding window de-biases the
// per-bucket counts summed over its panes and attaches the combined error
// bound (sampling + randomized response). Results reach the analyst via a
// callback; joined randomized answers are optionally teed into the
// historical store (§3.3.1).
//
// Multi-query: the aggregator is a coordinator over per-query *lanes*. A
// lane owns everything one query needs — its MID join shards, its panes,
// its error estimator and its fault-loss ledger — so queries share nothing
// but the bus and the worker pool, and each query's results are
// bit-identical to a run where it is the only query registered. Lanes are
// processed in ascending-QID order everywhere order is observable. A lane
// consumes its query's lane outbound topic at every proxy, named at
// RegisterQuery.
//
// The join shards are the partitions of the lane's sources, as a Flink
// job's parallelism is the partitions of its Kafka topics: shard p polls
// partition p of every source, decodes, joins in its own MidJoiner and adds
// to its own panes. broker::PartitionForKey places all n shares of a MID in
// the same partition of each source, so the sources must be co-partitioned
// and a MID's shares always meet in one shard. Shards drain in parallel
// with no shared mutable state, and their panes are added into the lane's
// in shard order after each drain (see DESIGN.md §6g for why the sums are
// order-free and the result is bit-identical at every partition count).

#ifndef PRIVAPPROX_AGGREGATOR_AGGREGATOR_H_
#define PRIVAPPROX_AGGREGATOR_AGGREGATOR_H_

#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/answer.h"
#include "core/budget.h"
#include "core/error_estimation.h"
#include "core/query.h"
#include "engine/join.h"
#include "engine/window.h"
#include "metrics/metrics.h"
#include "proxy/proxy.h"
#include "transport/message_bus.h"

namespace privapprox::aggregator {

struct AggregatorConfig {
  size_t num_proxies = 2;
  size_t population = 0;       // U, for scaling estimates
  double confidence = 0.95;
  int64_t join_timeout_ms = 60000;
  // De-invert results produced under query inversion (§3.3.2).
  bool answers_inverted = false;
  // Optional worker pool (not owned). When set, Drain runs a lane's join
  // shards in parallel, one task per shard, so the bus sees concurrent
  // polls of distinct partitions (InProcessBus and TcpBusClient both take
  // them). Null drains the shards one after another.
  ThreadPool* pool = nullptr;
  // Fault-loss accounting (set by PrivApproxSystem when a FaultPlan is
  // configured). When true, MIDs reported lost by the fault injector
  // (NoteFaultLostMids) and incomplete MIDs expired from the join at the
  // watermark widen the confidence interval of every window containing
  // their event time (ErrorEstimator::Estimate's lost_to_faults), and the
  // expiries count in privapprox_fault_expired_mids_total. False keeps the
  // estimate path bit-identical to a fault-free build.
  bool track_fault_losses = false;
  // Where the aggregator registers its families: privapprox_agg_*_ns and
  // privapprox_malformed_dropped_total, and per RegisterQuery the
  // privapprox_agg_shard_* families, whose shard label is the partition
  // index (the imbalance gauge is max-shard routed shares * 1000 / the
  // per-shard mean). Not owned; null = a registry private to the
  // aggregator.
  metrics::Registry* registry = nullptr;
};

// Per-query registration options: the query's n source topics (its lane
// outbound topic at every proxy, in proxy order).
struct QueryLaneOptions {
  std::vector<std::string> source_topics;
};

struct WindowedResult {
  uint64_t query_id = 0;
  engine::Window window;
  core::QueryResult result;
};

class Aggregator {
 public:
  using ResultFn = std::function<void(const WindowedResult&)>;
  // Optional tee of every joined randomized answer (for historical
  // analytics): the answers one shard joined in one drain, in join order,
  // as records keyed by QID whose payload is the joined message in
  // AnswerMessage wire form (header and answer bytes, nothing trailing);
  // shards follow in shard order. The payloads live until the call returns.
  using AnswerTapFn =
      std::function<void(std::span<const broker::ProduceView>)>;

  // Coordinator with no lanes yet; add queries with RegisterQuery. The bus
  // must outlive the aggregator: an InProcessBus over the broker in
  // process, a TopicRouterBus over the TcpBusClients dialed at each proxy
  // daemon in aggregatord.
  Aggregator(AggregatorConfig config, transport::MessageBus& bus,
             ResultFn on_result);

  // The partition count P that every source topic of `options` has: the
  // shard count of a lane over them. Throws std::invalid_argument unless
  // options.source_topics holds one topic per proxy and all of them have
  // P partitions — a MID's shares meet only within one shard, so the
  // sources must be co-partitioned, as Kafka Streams requires of joined
  // topics. aggregatord calls it before it journals a registration.
  size_t SourcePartitions(const QueryLaneOptions& options) const;

  // Adds a lane for `query` with one join shard per source partition.
  // Throws std::invalid_argument for QID 0, a QID already registered, or
  // sources SourcePartitions refuses.
  void RegisterQuery(const core::Query& query,
                     const core::ExecutionParams& params,
                     QueryLaneOptions options);

  bool HasQuery(uint64_t query_id) const {
    return lanes_.count(query_id) != 0;
  }
  size_t num_queries() const { return lanes_.size(); }

  void set_answer_tap(AnswerTapFn tap) { answer_tap_ = std::move(tap); }

  // Applies re-tuned execution parameters (§5 feedback loop): future
  // windows de-bias and error-estimate with the new (s, p, q). Windows
  // already buffered keep their answers; their estimates use the new
  // parameters, which is the correct choice once clients have switched.
  void UpdateParams(uint64_t query_id, const core::ExecutionParams& params);

  // Drains every lane's source topics through join -> decrypt -> window,
  // lanes in ascending-QID order. Returns the number of records consumed.
  //
  // Retry-lossless under transport failures: a shard commits a partition's
  // offset only when a poll returns, so if a poll throws (e.g. its TCP peer
  // died mid-drain) the shard still polls its other sources and joins
  // everything it committed, and the first failure is rethrown once the
  // lane's shards are merged. A caller that retries Drain after the peer
  // returns never loses a committed record, and the retry's count includes
  // what the failed calls consumed.
  uint64_t Drain();

  // Releases every lane source below its committed offsets
  // (MessageBus::Release): the aggregator is each source's only consumer,
  // and the join keeps copies of the shares it parks. Drain never releases
  // by itself; its host calls this after a drain, unless the host reads
  // the sources again (a durable aggregator daemon re-drains them from
  // offset 0 after a restart).
  void ReleaseConsumed();

  // (topic, per-partition committed offsets) for every lane source, lanes
  // in ascending-QID order — the retention low-watermarks an operator
  // plumbs back to the proxy daemons (advance_watermark) so their durable
  // out-topic segments below these offsets can be deleted.
  std::vector<std::pair<std::string, std::vector<uint64_t>>> SourceOffsets()
      const;

  // Fault-recovery input (requires track_fault_losses): the epoch driver
  // reports the MIDs its injector knows can never join (dropped or
  // corrupted shares) at the end of each epoch, per query, through the
  // aggregator node's note_lost_mids verb. Each
  // (query, MID) is counted once — a later join-group expiry of the same
  // MID does not double-widen.
  void NoteFaultLostMids(uint64_t query_id, std::span<const uint64_t> mids,
                         int64_t now_ms);

  // Advances the event-time watermark on every lane: evicts stale join
  // groups shard by shard in shard order, then fires each window that ends
  // by the watermark and holds an answer, from the lane's panes. Lanes fire
  // in ascending-QID order; windows within a lane in ascending order.
  void AdvanceWatermark(int64_t watermark_ms);

  // Fires everything left (end of stream), all lanes.
  void Flush();

  // Join statistics summed across lanes and shards (recomputed per call).
  const engine::JoinStats& join_stats() const;
  size_t pending_join_groups() const;
  // Records dropped as undecodable so far (its malformed_dropped_total).
  uint64_t malformed_dropped() const { return malformed_.Value(); }
  uint64_t wrong_query_dropped() const;

 private:
  using Windows = engine::PaneWindows<core::AnswerAccumulator>;

  // One join shard: partition p of every source. Its drain touches only
  // its own state — offsets, joiner and everything the joiner's emit path
  // mutates — and drain_scratch_[p], so a lane's shards drain in parallel
  // without synchronization; the cross-shard deltas (panes, malformed,
  // wrong_query, tap) are folded into the coordinator sequentially
  // afterwards.
  struct Shard {
    Shard(size_t num_sources, metrics::Counter& shares,
          metrics::Counter& joined)
        : offsets(num_sources, 0), shares_total(shares), joined_total(joined) {}
    // Per source (indexed like Lane::sources): the committed offset in
    // partition p, the next record to poll.
    std::vector<uint64_t> offsets;
    std::unique_ptr<engine::MidJoiner> joiner;
    // Deltas since the last merge:
    Windows::Panes panes;        // answers added to their panes
    uint64_t consumed = 0;       // records polled
    uint64_t malformed = 0;      // undecodable or mis-keyed records,
                                 // unparsable plaintexts, windows past int64
    uint64_t wrong_query = 0;    // parsed answers for the wrong query/width
    uint64_t shares_fed = 0;     // shares fed to the joiner
    std::exception_ptr poll_error;  // the shard's first failed poll
    // Buffered answer tap: one record per answer, whose payload is slice i
    // of tap_bytes (a lane's answers all have one width), set at the merge.
    std::vector<broker::ProduceView> tap;
    std::vector<uint8_t> tap_bytes;
    // Lifetime counters for metrics deltas / imbalance:
    uint64_t last_joined = 0;    // joiner stats().joined at last merge
    uint64_t last_join_malformed = 0;  // ... and stats().malformed_dropped
    uint64_t routed_total = 0;   // lifetime shares fed
    metrics::Counter& shares_total;  // privapprox_agg_shard_shares_total
    metrics::Counter& joined_total;  // privapprox_agg_shard_joined_total
  };

  // Everything one registered query owns. unique_ptr'd in lanes_ so the
  // Lane* captured by its shards' joiner callbacks stays stable.
  struct Lane {
    core::Query query;
    core::ExecutionParams params;
    core::ErrorEstimator estimator;
    std::vector<std::string> sources;  // one lane out-topic per proxy
    // One per source partition. unique_ptr for stable addresses: each
    // shard's joiner emit callback captures its Shard*.
    std::vector<std::unique_ptr<Shard>> shards;
    Windows windows;  // the shards' panes, added in shard order
    uint64_t wrong_query_dropped = 0;
    // Fault-loss bookkeeping (track_fault_losses): MID -> event time of
    // each loss, deduplicating injector reports against join-group
    // expiries. A MID's first report counts one loss in the pane of its
    // event time (Windows::NoteLoss); entries too old to reach any future
    // window are pruned as the watermark advances. Lane-level: evictions
    // run shard-by-shard in shard order, and each MID belongs to exactly
    // one shard, so the map's content is independent of shard count.
    std::unordered_map<uint64_t, int64_t> fault_lost_mids;
    metrics::Gauge& imbalance_milli;  // privapprox_agg_shard_imbalance_milli

    Lane(const core::Query& q, const core::ExecutionParams& p,
         const AggregatorConfig& config, std::vector<std::string> topics,
         metrics::Gauge& imbalance)
        : query(q),
          params(p),
          estimator(p, config.population, config.confidence),
          sources(std::move(topics)),
          windows(q.window_length_ms, q.sliding_interval_ms),
          imbalance_milli(imbalance) {}
  };

  Lane& GetLane(uint64_t query_id, const char* caller);
  // Adds what the lane's shards consumed to unreported_consumed_, then
  // rethrows the first failed poll.
  void DrainLane(Lane& lane);
  // Shard p's drain: polls partition p of every source until a poll
  // returns nothing, decoding as it goes into drain_scratch_[p], then feeds
  // its joiner in aligned blocks of 256 shares — block b of every source,
  // in source order, before block b + 1.
  void DrainShard(Lane& lane, size_t p);
  // Folds the shards' deltas into the lane and the coordinator, in shard
  // order.
  void MergeShardDeltas(Lane& lane);
  // Advances the lane's panes to `watermark_ms` and emits a result per
  // fired window, in ascending window order.
  void FireWindows(Lane& lane, int64_t watermark_ms);
  void AdvanceLaneWatermark(Lane& lane, int64_t watermark_ms);
  void OnJoinedShard(Lane& lane, Shard& shard,
                     std::span<const uint8_t> plaintext, int64_t timestamp_ms);
  void NoteMalformed(uint64_t n);
  void NoteLostMid(Lane& lane, uint64_t mid, int64_t ts);

  AggregatorConfig config_;
  transport::MessageBus& bus_;
  // Set only when config_.registry is null; declared before the registry
  // reference and the instruments registered on it.
  std::unique_ptr<metrics::Registry> owned_registry_;
  metrics::Registry& registry_;
  metrics::Histogram& decode_ns_;  // per shard poll+decode pass
  metrics::Histogram& join_ns_;    // per shard join feed pass
  metrics::Histogram& window_ns_;  // per fired window
  metrics::Histogram& evict_ns_;   // per lane per watermark advance
  metrics::Counter& malformed_;
  ResultFn on_result_;
  AnswerTapFn answer_tap_;
  std::map<uint64_t, std::unique_ptr<Lane>> lanes_;  // QID -> lane, ascending
  // Drain scratch of the shards of partition p, reused across drains and
  // lanes (lanes drain one after another, a lane's shards in parallel), so
  // steady-state draining performs no heap allocation: one poll's records,
  // and the shares decoded from partition p of each source.
  struct ShardScratch {
    std::vector<broker::RecordView> views;
    std::vector<proxy::Proxy::DecodedShares> decoded;  // indexed by source
  };
  std::vector<ShardScratch> drain_scratch_;  // indexed by partition
  std::vector<uint64_t> release_offsets_;  // ReleaseConsumed's scratch
  // Records consumed since the last Drain that returned: a Drain that
  // throws leaves its count here for the next one to report.
  uint64_t unreported_consumed_ = 0;
  mutable engine::JoinStats merged_join_stats_;
};

}  // namespace privapprox::aggregator

#endif  // PRIVAPPROX_AGGREGATOR_AGGREGATOR_H_
