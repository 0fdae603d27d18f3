#include "aggregator/aggregator.h"

#include <algorithm>
#include <exception>
#include <functional>
#include <optional>
#include <stdexcept>

#include "common/histogram.h"
#include "core/inversion.h"
#include "crypto/message.h"

namespace privapprox::aggregator {

namespace {

// Records per poll: a shard polls a partition until a poll returns none.
constexpr size_t kPollRecords = 4096;

// A shard feeds its joiner in aligned blocks of this many shares per
// source, and its joiner keeps a slot pool for about one block of parked
// shares; the four shards of a 4-partition lane together keep about what
// one joiner fed 1024-share blocks of the whole lane did.
constexpr size_t kFeedBlock = 256;

void ValidateAggregatorConfig(const AggregatorConfig& config) {
  if (config.num_proxies < 2) {
    throw std::invalid_argument("Aggregator: need at least two proxies");
  }
  if (config.population == 0) {
    throw std::invalid_argument("Aggregator: population must be > 0");
  }
}

}  // namespace

Aggregator::Aggregator(AggregatorConfig config, transport::MessageBus& bus,
                       ResultFn on_result)
    : config_(std::move(config)),
      bus_(bus),
      owned_registry_(config_.registry == nullptr
                          ? std::make_unique<metrics::Registry>()
                          : nullptr),
      registry_(config_.registry != nullptr ? *config_.registry
                                            : *owned_registry_),
      decode_ns_(registry_.GetHistogram(
          "privapprox_agg_decode_ns",
          "Aggregator shard poll+decode pass latency in nanoseconds")),
      join_ns_(registry_.GetHistogram(
          "privapprox_agg_join_ns",
          "Aggregator shard join feed pass latency in nanoseconds")),
      window_ns_(registry_.GetHistogram(
          "privapprox_agg_window_ns",
          "Window fire (de-bias + error estimation) latency in "
          "nanoseconds")),
      evict_ns_(registry_.GetHistogram(
          "privapprox_agg_evict_ns",
          "Watermark join sweep latency in nanoseconds: one lane's "
          "EvictStale over all its shards")),
      malformed_(registry_.GetCounter(
          "privapprox_malformed_dropped_total",
          "Records dropped as undecodable (truncated or mis-keyed share, "
          "garbage plaintext, or an event time whose windows leave int64)")),
      on_result_(std::move(on_result)) {
  ValidateAggregatorConfig(config_);
}

size_t Aggregator::SourcePartitions(const QueryLaneOptions& options) const {
  if (options.source_topics.size() != config_.num_proxies) {
    throw std::invalid_argument(
        "Aggregator::RegisterQuery: need one source topic per proxy");
  }
  std::vector<size_t> counts;
  for (const std::string& topic : options.source_topics) {
    counts.push_back(bus_.NumPartitions(topic));
  }
  if (std::adjacent_find(counts.begin(), counts.end(),
                         std::not_equal_to<>()) != counts.end()) {
    std::string listing;
    for (size_t s = 0; s < counts.size(); ++s) {
      listing += (s != 0 ? ", " : "") + options.source_topics[s] + " has " +
                 std::to_string(counts[s]);
    }
    throw std::invalid_argument(
        "Aggregator::RegisterQuery: sources are not co-partitioned (" +
        listing + " partitions)");
  }
  return counts.front();
}

void Aggregator::RegisterQuery(const core::Query& query,
                               const core::ExecutionParams& params,
                               QueryLaneOptions options) {
  if (query.query_id == 0) {
    throw std::invalid_argument("Aggregator::RegisterQuery: query id 0");
  }
  if (lanes_.count(query.query_id) != 0) {
    throw std::invalid_argument(
        "Aggregator::RegisterQuery: duplicate query id " +
        std::to_string(query.query_id));
  }
  const size_t num_partitions = SourcePartitions(options);
  const std::string qid = std::to_string(query.query_id);
  auto lane_ptr = std::make_unique<Lane>(
      query, params, config_, std::move(options.source_topics),
      registry_.GetGauge("privapprox_agg_shard_imbalance_milli",
                         "Max-shard routed shares over the per-shard mean, "
                         "x1000 (1000 = perfectly balanced)",
                         {{"query", qid}}));
  Lane* lane = lane_ptr.get();
  for (size_t p = 0; p < num_partitions; ++p) {
    const metrics::Labels labels = {{"query", qid},
                                    {"shard", std::to_string(p)}};
    auto shard = std::make_unique<Shard>(
        lane->sources.size(),
        registry_.GetCounter("privapprox_agg_shard_shares_total",
                             "Shares routed to this aggregator join shard",
                             labels),
        registry_.GetCounter("privapprox_agg_shard_joined_total",
                             "Answers completed by this aggregator join shard",
                             labels));
    Shard* sp = shard.get();
    sp->joiner = std::make_unique<engine::MidJoiner>(
        config_.num_proxies, config_.join_timeout_ms,
        [this, lane, sp](uint64_t, engine::JoinedPlaintext plaintext,
                         int64_t ts) {
          OnJoinedShard(*lane, *sp, plaintext.bytes(), ts);
        });
    if (config_.track_fault_losses) {
      // Attribute every watermark-expired join group to its window for CI
      // widening. Wired only under a fault plan so the fault-free estimate
      // path stays bit-identical. Evictions only run from AdvanceWatermark's
      // sequential shard loop, so touching lane state here is safe.
      metrics::Counter* expired = &registry_.GetCounter(
          "privapprox_fault_expired_mids_total",
          "Incomplete join groups expired at the watermark");
      sp->joiner->set_evict_fn([this, lane, expired](uint64_t mid,
                                                     int64_t first_seen_ms) {
        expired->Increment();
        NoteLostMid(*lane, mid, first_seen_ms);
      });
    }
    lane->shards.push_back(std::move(shard));
  }
  lanes_.emplace(query.query_id, std::move(lane_ptr));
}

Aggregator::Lane& Aggregator::GetLane(uint64_t query_id, const char* caller) {
  const auto it = lanes_.find(query_id);
  if (it == lanes_.end()) {
    throw std::invalid_argument(std::string(caller) +
                                ": unknown query id " +
                                std::to_string(query_id));
  }
  return *it->second;
}

void Aggregator::UpdateParams(uint64_t query_id,
                              const core::ExecutionParams& params) {
  params.Validate();
  Lane& lane = GetLane(query_id, "Aggregator::UpdateParams");
  lane.params = params;
  lane.estimator =
      core::ErrorEstimator(params, config_.population, config_.confidence);
}

uint64_t Aggregator::Drain() {
  for (auto& [qid, lane] : lanes_) {
    DrainLane(*lane);
  }
  return std::exchange(unreported_consumed_, 0);
}

void Aggregator::DrainLane(Lane& lane) {
  const size_t num_partitions = lane.shards.size();
  if (drain_scratch_.size() < num_partitions) {
    drain_scratch_.resize(num_partitions);
  }
  if (config_.pool != nullptr && num_partitions > 1) {
    config_.pool->ParallelFor(num_partitions, [&](size_t begin, size_t end) {
      for (size_t p = begin; p < end; ++p) {
        DrainShard(lane, p);
      }
    });
  } else {
    for (size_t p = 0; p < num_partitions; ++p) {
      DrainShard(lane, p);
    }
  }
  std::exception_ptr error;
  for (auto& shard : lane.shards) {
    unreported_consumed_ += std::exchange(shard->consumed, 0);
    if (error == nullptr) {
      error = shard->poll_error;
    }
    shard->poll_error = nullptr;
  }
  MergeShardDeltas(lane);
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

void Aggregator::DrainShard(Lane& lane, size_t p) {
  Shard& shard = *lane.shards[p];
  ShardScratch& scratch = drain_scratch_[p];
  scratch.decoded.resize(lane.sources.size());
  size_t longest = 0;
  {
    // Polls and decodes are view-based: payloads stay in the bus's slabs
    // and only the 8-byte MID header is parsed here.
    const metrics::ScopedTimer timer(decode_ns_);
    for (size_t s = 0; s < lane.sources.size(); ++s) {
      proxy::Proxy::DecodedShares& decoded = scratch.decoded[s];
      decoded.Clear();
      try {
        for (;;) {
          scratch.views.clear();
          const size_t pulled = bus_.Poll(lane.sources[s], p, shard.offsets[s],
                                          kPollRecords, scratch.views);
          if (pulled == 0) {
            break;
          }
          shard.offsets[s] += pulled;
          proxy::Proxy::DecodeShares(scratch.views, decoded);
        }
      } catch (...) {
        // The failed poll committed nothing; what earlier polls committed
        // is decoded already and is fed below, and the other sources are
        // still polled.
        if (shard.poll_error == nullptr) {
          shard.poll_error = std::current_exception();
        }
      }
      shard.consumed += decoded.shares.size() + decoded.malformed;
      shard.malformed += decoded.malformed;
      longest = std::max(longest, decoded.shares.size());
    }
  }
  // Each source holds a MID's share in the same partition and client
  // order, so feeding the sources block by block lets a MID's n shares
  // meet within a block or two, and the joiner parks about one block of
  // shares instead of every source but the last. The feed order is a pure
  // function of the partition's contents.
  const metrics::ScopedTimer timer(join_ns_);
  for (size_t begin = 0; begin < longest; begin += kFeedBlock) {
    for (size_t s = 0; s < scratch.decoded.size(); ++s) {
      const auto& shares = scratch.decoded[s].shares;
      const size_t end = std::min(begin + kFeedBlock, shares.size());
      for (size_t i = begin; i < end; ++i) {
        const proxy::Proxy::DecodedShare& share = shares[i];
        ++shard.shares_fed;
        shard.joiner->Add(share.message_id, share.payload,
                          share.timestamp_ms, s);
      }
    }
  }
}

void Aggregator::ReleaseConsumed() {
  for (auto& [qid, lane] : lanes_) {
    for (size_t s = 0; s < lane->sources.size(); ++s) {
      release_offsets_.clear();
      for (const auto& shard : lane->shards) {
        release_offsets_.push_back(shard->offsets[s]);
      }
      bus_.Release(lane->sources[s], release_offsets_);
    }
  }
}

std::vector<std::pair<std::string, std::vector<uint64_t>>>
Aggregator::SourceOffsets() const {
  std::vector<std::pair<std::string, std::vector<uint64_t>>> out;
  for (const auto& [qid, lane] : lanes_) {
    for (size_t s = 0; s < lane->sources.size(); ++s) {
      std::vector<uint64_t> offsets;
      offsets.reserve(lane->shards.size());
      for (const auto& shard : lane->shards) {
        offsets.push_back(shard->offsets[s]);
      }
      out.emplace_back(lane->sources[s], std::move(offsets));
    }
  }
  return out;
}

void Aggregator::MergeShardDeltas(Lane& lane) {
  // Sequential, in shard order. Every fold below is a sum or an
  // insertion keyed by data the shards partition disjointly, so the merged
  // totals are independent of how work interleaved inside the parallel
  // region — only this loop's fixed order shows up in observable output
  // (the answer-tap order). Pane counts are whole numbers held in doubles,
  // so their sums are exact in any order.
  uint64_t routed_max = 0;
  uint64_t routed_sum = 0;
  for (auto& shard_ptr : lane.shards) {
    Shard& shard = *shard_ptr;
    lane.windows.Absorb(shard.panes);
    NoteMalformed(shard.malformed);
    shard.malformed = 0;
    lane.wrong_query_dropped += shard.wrong_query;
    shard.wrong_query = 0;
    if (answer_tap_ && !shard.tap.empty()) {
      const size_t width = shard.tap_bytes.size() / shard.tap.size();
      for (size_t i = 0; i < shard.tap.size(); ++i) {
        shard.tap[i].payload = {shard.tap_bytes.data() + i * width, width};
      }
      answer_tap_(shard.tap);
    }
    shard.tap.clear();
    shard.tap_bytes.clear();
    shard.shares_total.Increment(shard.shares_fed);
    const engine::JoinStats& join = shard.joiner->stats();
    shard.joined_total.Increment(join.joined - shard.last_joined);
    shard.last_joined = join.joined;
    // Join groups dropped for disagreeing share lengths count as malformed,
    // like plaintexts that fail to parse.
    NoteMalformed(join.malformed_dropped - shard.last_join_malformed);
    shard.last_join_malformed = join.malformed_dropped;
    shard.routed_total += shard.shares_fed;
    shard.shares_fed = 0;
    routed_max = std::max(routed_max, shard.routed_total);
    routed_sum += shard.routed_total;
  }
  if (routed_sum > 0) {
    const double mean = static_cast<double>(routed_sum) /
                        static_cast<double>(lane.shards.size());
    lane.imbalance_milli.Set(
        static_cast<int64_t>(static_cast<double>(routed_max) * 1000.0 / mean));
  }
}

void Aggregator::NoteLostMid(Lane& lane, uint64_t mid, int64_t ts) {
  // Dedup: a MID the injector already reported lost also lingers as a
  // partial join group until eviction — count it once.
  if (lane.fault_lost_mids.try_emplace(mid, ts).second) {
    lane.windows.NoteLoss(ts);
  }
}

void Aggregator::NoteFaultLostMids(uint64_t query_id,
                                   std::span<const uint64_t> mids,
                                   int64_t now_ms) {
  if (!config_.track_fault_losses) {
    throw std::logic_error(
        "Aggregator::NoteFaultLostMids: track_fault_losses is off");
  }
  Lane& lane = GetLane(query_id, "Aggregator::NoteFaultLostMids");
  for (const uint64_t mid : mids) {
    NoteLostMid(lane, mid, now_ms);
  }
}

void Aggregator::NoteMalformed(uint64_t n) {
  if (n != 0) {
    malformed_.Increment(n);
  }
}

void Aggregator::OnJoinedShard(Lane& lane, Shard& shard,
                               std::span<const uint8_t> plaintext,
                               int64_t timestamp_ms) {
  // Only the 12-byte header is parsed; the answer bits are added straight
  // from the joiner's plaintext scratch to the accumulator of one pane.
  const std::optional<crypto::AnswerMessageView> message =
      crypto::AnswerMessageView::Parse(plaintext);
  if (!message.has_value()) {
    ++shard.malformed;
    return;
  }
  const size_t num_buckets = lane.query.answer_format.num_buckets();
  if (message->query_id != lane.query.query_id ||
      message->answer_bits != num_buckets) {
    ++shard.wrong_query;
    return;
  }
  // A producer stamps its records, so the event time may be hostile: an
  // answer whose windows do not all fit in int64 is malformed. A late
  // answer is tapped, but not added.
  if (!lane.windows.Fold(shard.panes, timestamp_ms, message->answer_bytes,
                         num_buckets)) {
    ++shard.malformed;
    return;
  }
  if (answer_tap_) {
    const size_t width = crypto::AnswerMessage::WireSize(num_buckets);
    shard.tap_bytes.insert(shard.tap_bytes.end(), plaintext.begin(),
                           plaintext.begin() + width);
    shard.tap.push_back(broker::ProduceView{lane.query.query_id, {},
                                            timestamp_ms});
  }
}

void Aggregator::FireWindows(Lane& lane, int64_t watermark_ms) {
  lane.windows.Advance(watermark_ms, [&](const engine::Window& window,
                                         const core::AnswerAccumulator& acc,
                                         uint64_t lost) {
    const metrics::ScopedTimer timer(window_ns_);
    core::QueryResult result =
        lane.estimator.Estimate(acc.histogram(), acc.num_answers(), lost);
    if (config_.answers_inverted) {
      // De-invert: yes-count = participants - no-count, bucket-wise, scaled
      // to the population.
      const double scaled_total = static_cast<double>(config_.population);
      for (auto& bucket : result.buckets) {
        bucket.estimate.value =
            core::YesCountFromInverted(bucket.estimate.value, scaled_total);
      }
    }
    on_result_(
        WindowedResult{lane.query.query_id, window, std::move(result)});
  });
}

void Aggregator::AdvanceLaneWatermark(Lane& lane, int64_t watermark_ms) {
  // Evictions run shard by shard in shard order; each MID lives in exactly
  // one shard, so the lane-side loss map and expired counter end up
  // identical for every shard count.
  {
    const metrics::ScopedTimer timer(evict_ns_);
    for (auto& shard : lane.shards) {
      shard->joiner->EvictStale(watermark_ms);
    }
  }
  FireWindows(lane, watermark_ms);
  if (config_.track_fault_losses) {
    // Losses too old to fall into any window still unfired can go: every
    // window containing their event time ended at or before the watermark.
    const int64_t window_ms = lane.query.window_length_ms;
    const int64_t cutoff = watermark_ms < INT64_MIN + window_ms
                               ? INT64_MIN
                               : watermark_ms - window_ms;
    std::erase_if(lane.fault_lost_mids,
                  [cutoff](const auto& loss) { return loss.second < cutoff; });
  }
}

void Aggregator::AdvanceWatermark(int64_t watermark_ms) {
  for (auto& [qid, lane] : lanes_) {
    AdvanceLaneWatermark(*lane, watermark_ms);
  }
}

void Aggregator::Flush() {
  for (auto& [qid, lane] : lanes_) {
    FireWindows(*lane, INT64_MAX);
  }
}

const engine::JoinStats& Aggregator::join_stats() const {
  merged_join_stats_ = {};
  for (const auto& [qid, lane] : lanes_) {
    for (const auto& shard : lane->shards) {
      const engine::JoinStats& s = shard->joiner->stats();
      merged_join_stats_.joined += s.joined;
      merged_join_stats_.duplicates_dropped += s.duplicates_dropped;
      merged_join_stats_.evicted_partial += s.evicted_partial;
      merged_join_stats_.late_dropped += s.late_dropped;
      merged_join_stats_.malformed_dropped += s.malformed_dropped;
    }
  }
  return merged_join_stats_;
}

size_t Aggregator::pending_join_groups() const {
  size_t pending = 0;
  for (const auto& [qid, lane] : lanes_) {
    for (const auto& shard : lane->shards) {
      pending += shard->joiner->pending_groups();
    }
  }
  return pending;
}

uint64_t Aggregator::wrong_query_dropped() const {
  uint64_t total = 0;
  for (const auto& [qid, lane] : lanes_) {
    total += lane->wrong_query_dropped;
  }
  return total;
}

}  // namespace privapprox::aggregator
