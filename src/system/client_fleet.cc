#include "system/client_fleet.h"

#include <memory>
#include <numeric>
#include <stdexcept>

namespace privapprox::system {

ClientFleet::ClientFleet(size_t num_clients, size_t num_proxies,
                         uint64_t seed, bool invert_answers,
                         metrics::Registry& registry)
    : num_proxies_(num_proxies),
      participants_(registry.GetCounter(
          "privapprox_participants_total",
          "(client, query) pairs that passed the sampling coin, summed over "
          "epochs")),
      skips_(registry.GetCounter(
          "privapprox_client_skips_total",
          "(client, query) pairs that failed the sampling coin, summed over "
          "epochs")),
      shares_sent_(registry.GetCounter("privapprox_shares_sent_total",
                                       "Client -> proxy share messages")) {
  clients_.reserve(num_clients);
  for (size_t i = 0; i < num_clients; ++i) {
    client::ClientConfig config;
    config.client_id = i;
    config.num_proxies = num_proxies;
    config.seed = seed;
    config.invert_answers = invert_answers;
    clients_.emplace_back(config);
  }
}

void ClientFleet::DeliverAnnouncement(size_t proxy, transport::MessageBus& bus,
                                      const std::string& topic) {
  transport::BusConsumer consumer(bus, topic);
  std::vector<broker::RecordView> records;
  while (consumer.PollInto(64, records) != 0) {
  }
  if (records.empty()) {
    throw std::logic_error("ClientFleet: no announcement on " + topic);
  }
  // The freshest announcement on the topic is the one just published.
  // Compiling is a pure function of these bytes, so compiling them once and
  // sharing the result gives every client of the cohort exactly what
  // parsing its own copy would. Each cohort compiles the bytes its own
  // proxy relayed: proxies are separate parties, and a tampered relay must
  // still be refused.
  const broker::RecordView& last = records.back();
  const std::shared_ptr<const client::CompiledQuery> compiled =
      client::CompileAnnouncement({last.payload, last.payload_len});
  for (size_t i = proxy; i < clients_.size(); i += num_proxies_) {
    clients_[i].Subscribe(compiled);
  }
}

AnsweredRange ClientFleet::Answer(size_t begin, size_t end, int64_t now_ms,
                                  std::span<const uint64_t> qids,
                                  EpochArena& arena,
                                  fault::FaultInjector* injector,
                                  uint64_t epoch) {
  const size_t num_queries = qids.size();
  AnsweredRange out;
  out.participants.assign(num_queries, 0);
  out.lanes.resize(num_proxies_);
  for (std::vector<LaneRecords>& lanes : out.lanes) {
    lanes.resize(num_queries);
    for (LaneRecords& lane : lanes) {
      lane.records.reserve(end - begin);
    }
  }
  // Client i's shares for its k-th subscription land in
  // views[k * num_proxies + j], j = proxy index. Both buffers are per-thread
  // scratch, reused by every range the thread answers.
  static thread_local std::vector<crypto::ShareView> views;
  static thread_local std::vector<uint64_t> answered;
  views.assign(num_queries * num_proxies_, crypto::ShareView{});
  for (size_t i = begin; i < end; ++i) {
    clients_[i].AnswerSubscribedInto(now_ms, arena, views, answered);
    size_t k = 0;
    for (const uint64_t qid : answered) {
      while (qids[k] != qid) {
        ++k;
      }
      ++out.participants[k];
      for (size_t j = 0; j < num_proxies_; ++j) {
        const crypto::ShareView& view = views[k * num_proxies_ + j];
        LaneRecords& lane = out.lanes[j][k];
        if (injector == nullptr) {
          lane.records.push_back(
              broker::ProduceView{view.message_id, view.bytes(), now_ms});
          continue;
        }
        // Fault path: decisions are (QID, MID, proxy) hashes, so every
        // worker count and range split sees the same faults. Defer copies
        // the record (the arena recycles once the range is produced); a
        // corrupted record is just a shorter span of the arena bytes.
        const std::span<const uint8_t> record = view.bytes();
        const fault::ShareOutcome outcome =
            injector->RouteShare(qid, view.message_id, j, epoch);
        if (outcome.route == fault::ShareRoute::kLost) {
          continue;
        }
        if (outcome.route == fault::ShareRoute::kDeferred) {
          injector->Defer(qid, j, view.message_id, record, now_ms);
          continue;
        }
        const std::span<const uint8_t> payload =
            outcome.corrupt_to != SIZE_MAX ? record.first(outcome.corrupt_to)
                                           : record;
        std::vector<broker::ProduceView>& dest =
            outcome.route == fault::ShareRoute::kFailover ? lane.failover
                                                          : lane.records;
        dest.push_back(broker::ProduceView{view.message_id, payload, now_ms});
        if (outcome.duplicate) {
          dest.push_back(
              broker::ProduceView{view.message_id, payload, now_ms});
        }
      }
    }
  }
  const uint64_t answered_total = std::accumulate(
      out.participants.begin(), out.participants.end(), uint64_t{0});
  participants_.Increment(answered_total);
  skips_.Increment((end - begin) * num_queries - answered_total);
  shares_sent_.Increment(answered_total * num_proxies_);
  return out;
}

}  // namespace privapprox::system
