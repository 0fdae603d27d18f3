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
//
// What a subscription needs besides its randomness — the query, its admitted
// parameters, the randomized-response mechanism and the parsed plan — is a
// CompiledQuery: immutable, built once per announcement and shared by every
// client that received the same announcement bytes. A client keeps only its
// own RNG streams per subscription.

#ifndef PRIVAPPROX_CLIENT_CLIENT_H_
#define PRIVAPPROX_CLIENT_CLIENT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
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

// An announced query compiled for answering. Immutable once built, so one
// instance is shared (read-only, from any thread) by every client it was
// delivered to.
struct CompiledQuery {
  core::Query query;
  core::ExecutionParams params;
  core::RandomizedResponse rr;  // built from params.randomization
  // query.sql, parsed; nullopt when it does not parse (clients then answer
  // all-zero, as for a missing table).
  std::optional<localdb::QueryPlan> plan;
};

// Runs core::ValidateAnnouncement and compiles the query's SQL. Throws
// std::invalid_argument for anything ValidateAnnouncement refuses: a
// structurally invalid query, a bad signature, or bad parameters.
std::shared_ptr<const CompiledQuery> CompileQuery(
    const core::Query& query, const core::ExecutionParams& params);

// Wire form: parses a serialized announcement as received from a proxy's
// query topic, then CompileQuery. Throws core::WireError on malformed bytes.
// The result is a pure function of the bytes.
std::shared_ptr<const CompiledQuery> CompileAnnouncement(
    std::span<const uint8_t> announcement);

class Client {
 public:
  explicit Client(ClientConfig config);

  uint64_t id() const { return config_.client_id; }
  localdb::Database& database() { return db_; }

  // Installs (or, for an already-subscribed QID, updates in place) a
  // compiled query (non-null), as delivered via aggregator -> proxies ->
  // client in the submission phase. Re-subscribing an existing QID swaps
  // the compiled query and keeps its randomness streams intact, so
  // feedback-loop parameter changes never reset pads mid-stream.
  void Subscribe(std::shared_ptr<const CompiledQuery> compiled);

  // Subscribe(CompileQuery(query, params)): rejects (std::invalid_argument)
  // anything CompileQuery refuses.
  void Subscribe(const core::Query& query, const core::ExecutionParams& params);

  bool subscribed() const { return !subs_.empty(); }
  size_t num_subscriptions() const { return subs_.size(); }

  // The epoch pass, the client's one answer path: answers every subscribed
  // query with one shared sampling draw. `out` must hold
  // num_subscriptions() * num_proxies slots; the shares for the k-th
  // subscription (QIDs ascending) land in out[k * num_proxies + j], j =
  // proxy index, each its full wire record in `arena`. `answered` is
  // cleared and filled with the QIDs that participated this epoch — slots
  // belonging to non-participating queries are left untouched. A client
  // whose local query yields no rows still answers with an all-zero
  // truthful vector (its non-participation must not be visible). No-op with
  // zero subscriptions (the sampling coin is not consumed).
  void AnswerSubscribedInto(int64_t now_ms, EpochArena& arena,
                            std::span<crypto::ShareView> out,
                            std::vector<uint64_t>& answered);

  // The truthful (pre-randomization) answer to query `query_id`, for
  // test/benchmark reference only — a real deployment never exposes this.
  // Throws std::logic_error when the client is not subscribed to it.
  BitVector TruthfulAnswer(uint64_t query_id, int64_t now_ms);

 private:
  // This client's state for one subscribed query: its own randomness
  // streams, and the compiled query it shares with its cohort.
  struct Subscription {
    uint64_t query_id;
    std::shared_ptr<const CompiledQuery> compiled;
    Xoshiro256 rr_rng;             // randomized-response coins, per query
    crypto::XorSplitter splitter;  // MID + pad material, per query
  };

  // Bucketizes the first value the query's plan yields over its window
  // ending at `now_ms` — a scan that stops at the first matching row and
  // builds no vectors.
  BitVector ComputeTruthful(const CompiledQuery& compiled,
                            int64_t now_ms) const;
  // Steps II-III for one participating subscription (the caller has already
  // spent the sampling coin).
  void EncodeAnswerInto(Subscription& sub, int64_t now_ms, EpochArena& arena,
                        std::span<crypto::ShareView> out);

  ClientConfig config_;
  localdb::Database db_;
  Xoshiro256 coin_rng_;  // sampling coin only: one draw per answering epoch
  std::vector<Subscription> subs_;  // ascending QID
};

}  // namespace privapprox::client

#endif  // PRIVAPPROX_CLIENT_CLIENT_H_
