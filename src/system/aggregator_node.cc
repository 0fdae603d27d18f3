#include "system/aggregator_node.h"

#include <sstream>
#include <stdexcept>

#include "deploy/result_wire.h"
#include "proxy/proxy.h"
#include "transport/wire.h"

namespace privapprox::system {

namespace {

aggregator::AggregatorConfig WithRegistry(aggregator::AggregatorConfig config,
                                          metrics::Registry& registry) {
  config.registry = &registry;
  return config;
}

}  // namespace

AggregatorNode::AggregatorNode(aggregator::AggregatorConfig config,
                               metrics::Registry& registry,
                               transport::MessageBus& bus,
                               std::unique_ptr<storage::PartitionLog> journal)
    : num_proxies_(config.num_proxies),
      registry_(registry),
      aggregator_(WithRegistry(config, registry), bus,
                  [this](const aggregator::WindowedResult& result) {
                    results_.push_back(result);
                  }),
      journal_(std::move(journal)) {
  if (journal_ == nullptr) {
    return;
  }
  journal_->Replay([this](uint64_t /*offset*/, uint64_t /*key*/,
                          int64_t /*timestamp_ms*/,
                          std::span<const uint8_t> payload) {
    const core::QueryAnnouncement ann = core::DeserializeAnnouncement(payload);
    const uint64_t qid = ann.query.query_id;
    if (aggregator_.HasQuery(qid)) {
      aggregator_.UpdateParams(qid, ann.params);
    } else {
      aggregator_.RegisterQuery(ann.query, ann.params, Sources(qid));
    }
  });
  registry_.AddCollector([this] {
    const storage::PartitionLogStats s = journal_->stats();
    const auto set = [this](const char* name, const char* help,
                            uint64_t value) {
      registry_.GetGauge(name, help).Set(static_cast<int64_t>(value));
    };
    set("privapprox_storage_segments", "Live query-journal segments",
        s.segments);
    set("privapprox_storage_bytes", "Bytes held in the query journal",
        s.bytes);
    set("privapprox_storage_fsyncs", "fsync calls issued by the journal",
        s.fsyncs);
    set("privapprox_storage_recovered_records",
        "Journal records replayed at startup", s.recovered_records);
    set("privapprox_storage_truncated_tails",
        "Torn journal tails truncated during recovery", s.truncated_tails);
  });
}

aggregator::QueryLaneOptions AggregatorNode::Sources(uint64_t query_id) const {
  aggregator::QueryLaneOptions lane;
  lane.source_topics.reserve(num_proxies_);
  for (size_t j = 0; j < num_proxies_; ++j) {
    lane.source_topics.push_back(proxy::LaneOutTopic(j, query_id));
  }
  return lane;
}

void AggregatorNode::Apply(std::span<const uint8_t> announcement,
                           bool update) {
  const core::QueryAnnouncement ann =
      core::DeserializeAnnouncement(announcement);
  // Refuse before journaling: replay applies every journaled record, so one
  // the aggregator cannot apply would stop a restart from ever replaying.
  core::ValidateAnnouncement(ann.query, ann.params);
  const uint64_t qid = ann.query.query_id;
  if (update) {
    if (!aggregator_.HasQuery(qid)) {
      throw std::invalid_argument("AggregatorNode: update_params for unknown "
                                  "query " + std::to_string(qid));
    }
  } else {
    if (aggregator_.HasQuery(qid)) {
      return;  // driver retry after a restart, or duplicate submission
    }
    aggregator_.SourcePartitions(Sources(qid));
  }
  if (journal_ != nullptr) {
    // Journal before applying, and sync unconditionally: once the verb
    // acks, the change must survive kill -9 under any fsync policy.
    journal_->Append(qid, /*timestamp_ms=*/0, announcement);
    journal_->Sync();
  }
  if (update) {
    aggregator_.UpdateParams(qid, ann.params);
  } else {
    aggregator_.RegisterQuery(ann.query, ann.params, Sources(qid));
  }
}

std::string AggregatorNode::SnapshotOffsetsText() const {
  std::ostringstream out;
  out << "aggregator\n";
  for (const auto& [topic, parts] : aggregator_.SourceOffsets()) {
    out << "source " << topic << " consumed=";
    for (size_t p = 0; p < parts.size(); ++p) {
      out << (p != 0 ? "," : "") << parts[p];
    }
    out << "\n";
  }
  if (journal_ != nullptr) {
    const storage::PartitionLogStats s = journal_->stats();
    out << "journal records=" << journal_->end_offset()
        << " segments=" << s.segments << " bytes=" << s.bytes
        << " recovered_records=" << s.recovered_records
        << " truncated_tails=" << s.truncated_tails << "\n";
  }
  return out.str();
}

std::vector<uint8_t> AggregatorNode::HandleControl(
    const std::string& verb, std::span<const uint8_t> payload) {
  std::vector<uint8_t> response;
  if (verb == "ping") {
    return response;
  }
  if (verb == "register_query" || verb == "update_params") {
    Apply(payload, /*update=*/verb == "update_params");
    return response;
  }
  if (verb == "drain") {
    transport::PutU64(aggregator_.Drain(), response);
    // A journaled node must not release: after a restart it re-registers
    // its journaled queries and re-drains every source from offset 0, so
    // the proxies keep the out-topics until aggregator checkpoints let a
    // restart resume from a snapshot's offsets. Without a journal, the
    // lanes live only in memory and a restart has nothing to re-drain for.
    if (journal_ == nullptr) {
      aggregator_.ReleaseConsumed();
    }
    return response;
  }
  if (verb == "note_lost_mids") {
    // Parsed whole before anything changes; the count is checked against
    // the bytes that follow before anything is sized by it (any peer on the
    // daemon network can send verbs).
    transport::WireReader reader(payload);
    const uint64_t qid = reader.TakeU64();
    const auto now_ms = static_cast<int64_t>(reader.TakeU64());
    const uint32_t count = reader.TakeU32();
    if (reader.remaining() != uint64_t{count} * 8) {
      throw std::invalid_argument(
          "AggregatorNode: note_lost_mids count " + std::to_string(count) +
          " does not match its " + std::to_string(reader.remaining()) +
          " payload bytes");
    }
    std::vector<uint64_t> mids(count);
    for (uint64_t& mid : mids) {
      mid = reader.TakeU64();
    }
    aggregator_.NoteFaultLostMids(qid, mids, now_ms);
    return response;
  }
  if (verb == "advance_watermark") {
    transport::WireReader reader(payload);
    aggregator_.AdvanceWatermark(static_cast<int64_t>(reader.TakeU64()));
    return response;
  }
  if (verb == "flush") {
    aggregator_.Flush();
    return response;
  }
  if (verb == "take_results") {
    response = deploy::SerializeResults(results_);
    results_.clear();
    return response;
  }
  if (verb == "source_offsets") {
    // Per-source-topic consumed offsets — the retention low-watermarks the
    // fleet driver routes to each proxy's advance_watermark verb.
    const auto offsets = aggregator_.SourceOffsets();
    transport::PutU32(static_cast<uint32_t>(offsets.size()), response);
    for (const auto& [topic, parts] : offsets) {
      transport::PutString(topic, response);
      transport::PutU32(static_cast<uint32_t>(parts.size()), response);
      for (const uint64_t offset : parts) {
        transport::PutU64(offset, response);
      }
    }
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
  throw std::invalid_argument("AggregatorNode: unknown control verb '" +
                              verb + "'");
}

}  // namespace privapprox::system
