#include "client/client.h"

#include <stdexcept>
#include <string>

#include "core/answer.h"
#include "core/inversion.h"
#include "core/query_wire.h"

namespace privapprox::client {

namespace {

// Expands (seed, client_id, query_id) into the per-subscription randomness
// streams. A pure function of its inputs: a query's RR coins and pad bytes
// do not depend on which other queries the client happens to hold, which is
// what makes per-query results identical between joint and isolated runs.
SplitMix64 SubscriptionMixer(uint64_t seed, uint64_t client_id,
                             uint64_t query_id) {
  return SplitMix64(seed ^ (client_id * 0x9E3779B97F4A7C15ULL) ^
                    (query_id * 0xBF58476D1CE4E5B9ULL));
}

}  // namespace

Client::Client(ClientConfig config)
    : config_(config),
      coin_rng_(config.seed ^ (config.client_id * 0x9E3779B97F4A7C15ULL)) {}

void Client::Subscribe(const core::Query& query,
                       const core::ExecutionParams& params) {
  if (!query.VerifySignature()) {
    throw std::invalid_argument("Client::Subscribe: bad query signature");
  }
  params.Validate();
  const auto it = subs_.find(query.query_id);
  if (it != subs_.end()) {
    // Parameter/plan update for a live query: keep the RNG streams running.
    it->second.query = query;
    it->second.params = params;
    it->second.plan = Compile(query.sql);
    return;
  }
  SplitMix64 mixer =
      SubscriptionMixer(config_.seed, config_.client_id, query.query_id);
  const uint64_t rr_seed = mixer.Next();
  const uint64_t pad_seed = mixer.Next();
  subs_.emplace(
      query.query_id,
      Subscription{query, params, Xoshiro256(rr_seed),
                   crypto::XorSplitter(
                       config_.num_proxies,
                       crypto::ChaCha20Rng::FromSeed(pad_seed,
                                                     query.query_id)),
                   Compile(query.sql)});
}

std::optional<localdb::QueryPlan> Client::Compile(const std::string& sql) {
  try {
    return localdb::QueryPlan(sql);
  } catch (const localdb::SqlError&) {
    return std::nullopt;
  }
}

void Client::OnAnnouncement(const std::vector<uint8_t>& announcement) {
  const core::QueryAnnouncement ann =
      core::DeserializeAnnouncement(announcement);
  Subscribe(ann.query, ann.params);
}

std::vector<uint64_t> Client::subscribed_query_ids() const {
  std::vector<uint64_t> ids;
  ids.reserve(subs_.size());
  for (const auto& [qid, sub] : subs_) {
    ids.push_back(qid);
  }
  return ids;
}

const Client::Subscription& Client::SingleSub(const char* caller) const {
  if (subs_.empty()) {
    throw std::logic_error(std::string(caller) + ": no subscription");
  }
  if (subs_.size() > 1) {
    throw std::logic_error(std::string(caller) +
                           ": multiple subscriptions; pass a query id");
  }
  return subs_.begin()->second;
}

Client::Subscription& Client::SingleSub(const char* caller) {
  return const_cast<Subscription&>(
      static_cast<const Client*>(this)->SingleSub(caller));
}

const core::Query& Client::query() const {
  return SingleSub("Client::query").query;
}

const core::Query& Client::query(uint64_t query_id) const {
  return Sub(query_id, "Client::query").query;
}

const Client::Subscription& Client::Sub(uint64_t query_id,
                                        const char* caller) const {
  const auto it = subs_.find(query_id);
  if (it == subs_.end()) {
    throw std::logic_error(std::string(caller) +
                           ": not subscribed to query " +
                           std::to_string(query_id));
  }
  return it->second;
}

BitVector Client::ComputeTruthful(const Subscription& sub,
                                  int64_t now_ms) const {
  const core::AnswerFormat& format = sub.query.answer_format;
  std::optional<BitVector> truthful;
  if (sub.plan.has_value()) {
    try {
      // Bucketize the first result value; aggregates yield exactly one.
      db_.Scan(*sub.plan, now_ms - sub.query.window_length_ms, now_ms,
               [&](const localdb::Value& value) {
                 truthful = value.IsNumeric()
                                ? core::EncodeAnswer(format, value.AsDouble())
                                : core::EncodeAnswer(format, value.AsString());
                 return false;
               });
    } catch (const localdb::SqlError&) {
      // A query this client cannot answer (missing table/column) yields the
      // all-zero vector below; participation still looks normal from
      // outside.
    }
  }
  if (!truthful.has_value()) {
    return core::EmptyAnswer(format);
  }
  if (config_.invert_answers) {
    return core::InvertAnswer(*truthful);
  }
  return *truthful;
}

BitVector Client::TruthfulAnswer(int64_t now_ms) {
  return ComputeTruthful(SingleSub("Client::TruthfulAnswer"), now_ms);
}

BitVector Client::TruthfulAnswer(uint64_t query_id, int64_t now_ms) {
  return ComputeTruthful(Sub(query_id, "Client::TruthfulAnswer"), now_ms);
}

void Client::EncodeAnswerInto(Subscription& sub, int64_t now_ms,
                              EpochArena& arena,
                              std::span<crypto::ShareView> out) {
  // Step II: local execution + randomized response (per-query coin stream).
  const BitVector truthful = ComputeTruthful(sub, now_ms);
  const core::RandomizedResponse rr(sub.params.randomization);
  // Step III: frame and split.
  const crypto::AnswerMessage message{sub.query.query_id,
                                      rr.RandomizeAnswer(truthful, sub.rr_rng)};
  sub.splitter.SplitMessageInto(message, arena, out);
}

std::optional<EpochAnswer> Client::AnswerQuery(int64_t now_ms) {
  if (subs_.empty()) {
    return std::nullopt;
  }
  Subscription& sub = SingleSub("Client::AnswerQuery");
  // Step I: the sampling coin.
  const double u = coin_rng_.NextDouble();
  if (!(u < sub.params.sampling_fraction)) {
    if (config_.skips_total != nullptr) {
      config_.skips_total->Increment();
    }
    return std::nullopt;
  }
  if (config_.answers_total != nullptr) {
    config_.answers_total->Increment();
  }
  const BitVector truthful = ComputeTruthful(sub, now_ms);
  const core::RandomizedResponse rr(sub.params.randomization);
  const crypto::AnswerMessage message{sub.query.query_id,
                                      rr.RandomizeAnswer(truthful, sub.rr_rng)};
  EpochAnswer answer;
  answer.timestamp_ms = now_ms;
  answer.shares = sub.splitter.Split(message.Serialize());
  return answer;
}

bool Client::AnswerQueryInto(int64_t now_ms, EpochArena& arena,
                             std::span<crypto::ShareView> out) {
  if (subs_.empty()) {
    return false;
  }
  Subscription& sub = SingleSub("Client::AnswerQueryInto");
  const double u = coin_rng_.NextDouble();
  if (!(u < sub.params.sampling_fraction)) {
    if (config_.skips_total != nullptr) {
      config_.skips_total->Increment();
    }
    return false;
  }
  if (config_.answers_total != nullptr) {
    config_.answers_total->Increment();
  }
  EncodeAnswerInto(sub, now_ms, arena, out);
  return true;
}

void Client::AnswerSubscribedInto(int64_t now_ms, EpochArena& arena,
                                  std::span<crypto::ShareView> out,
                                  std::vector<uint64_t>& answered) {
  answered.clear();
  if (subs_.empty()) {
    return;
  }
  if (out.size() != subs_.size() * config_.num_proxies) {
    throw std::invalid_argument(
        "Client::AnswerSubscribedInto: out must hold subscriptions * "
        "proxies share slots");
  }
  // Step I, shared across subscriptions: one uniform draw per epoch, query
  // q participates iff u < s_q. The draw count per epoch is independent of
  // how many queries are live, and each query sees exactly the
  // participation sequence it would see running alone.
  const double u = coin_rng_.NextDouble();
  size_t slot = 0;
  for (auto& [qid, sub] : subs_) {
    if (u < sub.params.sampling_fraction) {
      if (config_.answers_total != nullptr) {
        config_.answers_total->Increment();
      }
      answered.push_back(qid);
      EncodeAnswerInto(sub, now_ms, arena,
                       out.subspan(slot * config_.num_proxies,
                                   config_.num_proxies));
    } else if (config_.skips_total != nullptr) {
      config_.skips_total->Increment();
    }
    ++slot;
  }
}

}  // namespace privapprox::client
