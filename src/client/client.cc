#include "client/client.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

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

std::shared_ptr<const CompiledQuery> CompileQuery(
    const core::Query& query, const core::ExecutionParams& params) {
  core::ValidateAnnouncement(query, params);
  std::optional<localdb::QueryPlan> plan;
  try {
    plan.emplace(query.sql);
  } catch (const localdb::SqlError&) {
  }
  return std::make_shared<const CompiledQuery>(
      CompiledQuery{query, params,
                    core::RandomizedResponse(params.randomization),
                    std::move(plan)});
}

std::shared_ptr<const CompiledQuery> CompileAnnouncement(
    std::span<const uint8_t> announcement) {
  const core::QueryAnnouncement ann =
      core::DeserializeAnnouncement(announcement);
  return CompileQuery(ann.query, ann.params);
}

Client::Client(ClientConfig config)
    : config_(config),
      coin_rng_(config.seed ^ (config.client_id * 0x9E3779B97F4A7C15ULL)) {}

void Client::Subscribe(std::shared_ptr<const CompiledQuery> compiled) {
  const uint64_t qid = compiled->query.query_id;
  const auto it = std::lower_bound(
      subs_.begin(), subs_.end(), qid,
      [](const Subscription& sub, uint64_t id) { return sub.query_id < id; });
  if (it != subs_.end() && it->query_id == qid) {
    // Parameter/plan update for a live query: keep the RNG streams running.
    it->compiled = std::move(compiled);
    return;
  }
  SplitMix64 mixer = SubscriptionMixer(config_.seed, config_.client_id, qid);
  const uint64_t rr_seed = mixer.Next();
  const uint64_t pad_seed = mixer.Next();
  const size_t at = static_cast<size_t>(it - subs_.begin());
  // Exact-fit growth: subscribing is rare, and a fleet holds one of these
  // vectors per client.
  subs_.reserve(subs_.size() + 1);
  subs_.insert(subs_.begin() + static_cast<long>(at),
               Subscription{qid, std::move(compiled), Xoshiro256(rr_seed),
                            crypto::XorSplitter(
                                config_.num_proxies,
                                crypto::ChaCha20Rng::FromSeed(pad_seed, qid))});
}

void Client::Subscribe(const core::Query& query,
                       const core::ExecutionParams& params) {
  Subscribe(CompileQuery(query, params));
}

BitVector Client::ComputeTruthful(const CompiledQuery& compiled,
                                  int64_t now_ms) const {
  const core::AnswerFormat& format = compiled.query.answer_format;
  std::optional<BitVector> truthful;
  if (compiled.plan.has_value()) {
    try {
      // Bucketize the first result value; aggregates yield exactly one.
      db_.Scan(*compiled.plan, now_ms - compiled.query.window_length_ms,
               now_ms,
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

BitVector Client::TruthfulAnswer(uint64_t query_id, int64_t now_ms) {
  for (const Subscription& sub : subs_) {
    if (sub.query_id == query_id) {
      return ComputeTruthful(*sub.compiled, now_ms);
    }
  }
  throw std::logic_error("Client::TruthfulAnswer: not subscribed to query " +
                         std::to_string(query_id));
}

void Client::EncodeAnswerInto(Subscription& sub, int64_t now_ms,
                              EpochArena& arena,
                              std::span<crypto::ShareView> out) {
  const CompiledQuery& compiled = *sub.compiled;
  // Step II: local execution + randomized response (per-query coin stream).
  const BitVector truthful = ComputeTruthful(compiled, now_ms);
  // Step III: frame and split.
  const crypto::AnswerMessage message{
      sub.query_id, compiled.rr.RandomizeAnswer(truthful, sub.rr_rng)};
  sub.splitter.SplitMessageInto(message, arena, out);
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
  for (Subscription& sub : subs_) {
    if (u < sub.compiled->params.sampling_fraction) {
      answered.push_back(sub.query_id);
      EncodeAnswerInto(sub, now_ms, arena,
                       out.subspan(slot * config_.num_proxies,
                                   config_.num_proxies));
    }
    ++slot;
  }
}

}  // namespace privapprox::client
