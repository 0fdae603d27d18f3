// The client runtime (paper §3.2 steps I-III, §5).
//
// Each client stores the user's private data in a local database, subscribes
// to analyst queries, and in each answering epoch:
//   1. flips the sampling coin (participate or not)            — Step I
//   2. executes the SQL locally and bucketizes the result
//   3. randomizes the answer bit-vector with two-coin RR       — Step II
//   4. XOR-splits <QID, answer> into n shares under a fresh MID and hands
//      one share to each proxy                                 — Step III
// No client ever talks to another client and nothing here requires
// synchronization — the property the paper's latency wins come from.
//
// Multi-query: a client holds a *set* of subscriptions and answers all of
// them in one epoch pass. The sampling coin is shared — one uniform draw u
// per epoch, query q participates iff u < s_q — so the per-epoch answering
// cost is one local-DB scan per query but only one coin. Randomized-response
// coins and XOR pad material are per-query streams seeded as pure functions
// of (seed, client_id, query_id), so each query's randomness (and therefore
// its results) is bit-identical whether it runs alone or alongside others.

#ifndef PRIVAPPROX_CLIENT_CLIENT_H_
#define PRIVAPPROX_CLIENT_CLIENT_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/rng.h"
#include "core/budget.h"
#include "core/query.h"
#include "core/randomized_response.h"
#include "core/sampling.h"
#include "crypto/xor_cipher.h"
#include "localdb/database.h"

namespace privapprox::client {

struct ClientConfig {
  uint64_t client_id = 0;
  size_t num_proxies = 2;
  uint64_t seed = 1;
  // When true, the client answers the inverted query (§3.3.2): bucket bits
  // are flipped before randomization, and the aggregator de-inverts.
  bool invert_answers = false;
};

// Everything a client ships for one query in one epoch: one share per proxy.
struct EpochAnswer {
  std::vector<crypto::MessageShare> shares;  // shares[i] goes to proxy i
  int64_t timestamp_ms = 0;
};

class Client {
 public:
  explicit Client(ClientConfig config);

  uint64_t id() const { return config_.client_id; }
  localdb::Database& database() { return db_; }

  // Installs (or, for an already-subscribed QID, updates in place) a query
  // and its execution parameters, as delivered via aggregator -> proxies ->
  // client in the submission phase. Re-subscribing an existing QID keeps
  // its randomness streams intact so feedback-loop parameter changes never
  // reset pads mid-stream. Rejects (std::invalid_argument) anything
  // core::ValidateAnnouncement refuses: a structurally invalid query, a bad
  // signature, or bad parameters.
  void Subscribe(const core::Query& query, const core::ExecutionParams& params);

  // Wire-level subscription: parses a serialized query announcement as
  // received from a proxy's query topic, verifies it, and subscribes.
  // Throws core::WireError on malformed bytes and std::invalid_argument on
  // a query or parameters Subscribe refuses.
  void OnAnnouncement(const std::vector<uint8_t>& announcement);

  bool subscribed() const { return !subs_.empty(); }
  size_t num_subscriptions() const { return subs_.size(); }
  // Subscribed QIDs in ascending order — the slot layout AnswerSubscribedInto
  // emits.
  std::vector<uint64_t> subscribed_query_ids() const;

  // Single-subscription accessor; throws std::logic_error unless exactly one
  // query is installed. Kept for the single-query API surface.
  const core::Query& query() const;
  const core::Query& query(uint64_t query_id) const;

  // Runs one answering epoch at `now_ms` for a single-subscription client.
  // Returns nullopt when the sampling coin says "do not participate" this
  // epoch, or when no query is installed; throws std::logic_error with more
  // than one subscription (use AnswerSubscribedInto). A client whose local
  // query yields no rows still answers with an all-zero truthful vector
  // (its non-participation must not be visible).
  std::optional<EpochAnswer> AnswerQuery(int64_t now_ms);

  // Multi-query epoch pass: answers every subscribed query with one shared
  // sampling draw. `out` must hold num_subscriptions() * num_proxies slots;
  // the shares for the k-th subscription (QIDs ascending) land in
  // out[k * num_proxies + j], j = proxy index. `answered` is cleared and
  // filled with the QIDs that participated this epoch — slots belonging to
  // non-participating queries are left untouched. No-op with zero
  // subscriptions (the sampling coin is not consumed).
  void AnswerSubscribedInto(int64_t now_ms, EpochArena& arena,
                            std::span<crypto::ShareView> out,
                            std::vector<uint64_t>& answered);

  // The truthful (pre-randomization) answer, for test/benchmark reference
  // only — a real deployment never exposes this. The QID-less overload is
  // the single-subscription shim.
  BitVector TruthfulAnswer(int64_t now_ms);
  BitVector TruthfulAnswer(uint64_t query_id, int64_t now_ms);

 private:
  struct Subscription {
    core::Query query;
    core::ExecutionParams params;
    Xoshiro256 rr_rng;             // randomized-response coins, per query
    crypto::XorSplitter splitter;  // MID + pad material, per query
    // query.sql, parsed at subscribe/update time; nullopt when it does not
    // parse (the client then answers all-zero, as for a missing table).
    std::optional<localdb::QueryPlan> plan;
  };

  static std::optional<localdb::QueryPlan> Compile(const std::string& sql);
  const Subscription& SingleSub(const char* caller) const;
  Subscription& SingleSub(const char* caller);
  const Subscription& Sub(uint64_t query_id, const char* caller) const;
  // Bucketizes the first value the subscription's plan yields over its
  // window ending at `now_ms` — a scan that stops at the first matching row
  // and builds no vectors.
  BitVector ComputeTruthful(const Subscription& sub, int64_t now_ms) const;
  // Steps II-III for one participating subscription (the caller has already
  // spent the sampling coin).
  void EncodeAnswerInto(Subscription& sub, int64_t now_ms, EpochArena& arena,
                        std::span<crypto::ShareView> out);

  ClientConfig config_;
  localdb::Database db_;
  Xoshiro256 coin_rng_;  // sampling coin only: one draw per answering epoch
  std::map<uint64_t, Subscription> subs_;  // QID -> subscription, ascending
};

}  // namespace privapprox::client

#endif  // PRIVAPPROX_CLIENT_CLIENT_H_
