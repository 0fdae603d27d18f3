// Deterministic fault injection for the epoch pipeline.
//
// The paper's deployment assumes proxies and share streams fail
// independently while the aggregator keeps emitting per-window answers with
// honest error bounds. This module injects those failures on purpose: a
// seeded FaultPlan describes per-share loss/corruption/duplication/delay on
// the client->proxy link, per-attempt forward timeouts, and per-epoch proxy
// crashes; the FaultInjector turns the plan into decisions.
//
// Determinism contract: every decision is a pure hash of
// (plan seed, query id, MID, proxy index, decision kind) — never of
// wall-clock time, thread identity, or arrival order — so a given plan
// injects the *same* faults at any worker count. That is what lets tests
// assert N workers == 1 worker under faults and lets a CI chaos matrix
// replay a seed exactly.
// Salting with the query id gives every query an independent (but still
// replayable) fault sequence; proxy crashes are infrastructure-level and
// stay per (epoch, proxy), hitting every query's lane alike.
//
// Recovery is modeled client-side: a forward that times out is retried with
// bounded exponential backoff (client::RetryPolicy; backoff is simulated
// virtual time, observed into a histogram, never slept) and fails over
// once retries are exhausted, as a Kafka producer reaches a partition's
// new leader: the share still lands in its own proxy's lane, after the
// epoch's other records. A delay-fated share misses its epoch and is
// delivered at the start of the next one.

#ifndef PRIVAPPROX_FAULT_FAULT_H_
#define PRIVAPPROX_FAULT_FAULT_H_

#include <cstdint>
#include <mutex>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "client/retry.h"
#include "metrics/metrics.h"

namespace privapprox::fault {

// A seeded description of what goes wrong. All probabilities are per
// (MID, proxy) share; the per-share fates (drop / corrupt / duplicate /
// delay) are mutually exclusive, drawn from one uniform in that priority
// order, so their probabilities must sum to <= 1.
struct FaultPlan {
  uint64_t seed = 1;

  // --- Injected share faults on the client -> proxy link ----------------
  double drop_probability = 0.0;       // share silently lost in transit
  double corrupt_probability = 0.0;    // record truncated below the MID
                                       // header (undecodable downstream)
  double duplicate_probability = 0.0;  // share delivered twice
  double delay_probability = 0.0;      // share deferred to the next epoch

  // --- Forward timeouts and proxy crashes -------------------------------
  double timeout_probability = 0.0;  // per forward attempt
  double crash_probability = 0.0;    // per (proxy, epoch): proxy crashes
                                     // mid-epoch, restarts for the next one
  // Fraction of a crashing proxy's shares sent before the crash instant;
  // the rest hit a dead proxy and time out on every attempt.
  double crash_point = 0.5;

  // --- Recovery ---------------------------------------------------------
  // Bounded exponential backoff per share; once retries are exhausted the
  // share fails over.
  client::RetryPolicy retry;

  void Validate() const;
};

// Running totals of everything an injector counted: the values of its
// privapprox_fault_* / privapprox_recovery_* counters.
struct FaultTotals {
  uint64_t dropped = 0, corrupted = 0, duplicated = 0;  // shares
  uint64_t delayed = 0;    // shares deferred to the next epoch
  uint64_t timeouts = 0;   // failed forward attempts
  uint64_t crashes = 0;    // proxy-epochs down
  uint64_t lost = 0;       // distinct (QID, MID) pairs that cannot join
  uint64_t retries = 0;    // forward attempts retried
  uint64_t failovers = 0;  // shares delivered after retries ran out
  uint64_t late = 0;       // deferred shares delivered
};

// Where one share ends up after injection + client-side recovery.
enum class ShareRoute {
  kPrimary,   // delivered within its retries (maybe corrupted/duplicated)
  kFailover,  // retries exhausted; lands after the epoch's other records
  kDeferred,  // delayed past its epoch; deliver next epoch
  kLost,      // dropped in transit
};

struct ShareOutcome {
  ShareRoute route = ShareRoute::kPrimary;
  bool duplicate = false;
  // != SIZE_MAX: truncate the wire record to this many bytes (< 8, so the
  // decode path counts it malformed and the MID can never join).
  size_t corrupt_to = SIZE_MAX;
};

// A delayed share, owned until redelivery. The (query_id, proxy) pair
// names the lane next-epoch replay routes it back to; the record is the
// lane wire record as the client encoded it.
struct DeferredShare {
  uint64_t query_id = 0;
  size_t proxy = 0;
  uint64_t message_id = 0;
  std::vector<uint8_t> record;  // <MID header | payload>
  int64_t timestamp_ms = 0;     // original event time
};

class FaultInjector {
 public:
  // Registers the privapprox_fault_* / privapprox_recovery_* families on
  // `registry`, which must outlive the injector. Their counters are relaxed
  // atomics, safe from concurrent answer shards.
  FaultInjector(FaultPlan plan, metrics::Registry& registry);

  const FaultPlan& plan() const { return plan_; }

  // Decides one share's fate and runs the client-side forward protocol
  // (retry with backoff, then failover). Deterministic per
  // (seed, query, mid, proxy, epoch); counts everything it injects and
  // recovers.
  ShareOutcome RouteShare(uint64_t query_id, uint64_t mid, size_t proxy,
                          uint64_t epoch);

  // True when `proxy` crashes during `epoch` (restarts for epoch + 1).
  // Query-independent: a crashed proxy is down for every lane it serves.
  bool ProxyCrashes(uint64_t epoch, size_t proxy) const;
  // Counts the proxies in [0, num_proxies) that crash during `epoch`; once
  // per epoch.
  void CountCrashes(uint64_t epoch, size_t num_proxies);

  FaultTotals totals() const;

  // Parks a deferred share until the next epoch (copies `lane_record`, the
  // <MID, payload> wire record — the caller's arena does not outlive the
  // epoch). Thread-safe.
  void Defer(uint64_t query_id, size_t proxy, uint64_t mid,
             std::span<const uint8_t> lane_record, int64_t timestamp_ms);
  // Drains the deferred shares in deterministic (proxy, QID, MID) order,
  // counting them as late-delivered. Called at the next epoch's start.
  std::vector<DeferredShare> TakeDeferred();

  // Drains the (query, MID) pairs lost so far (sorted, each counted once)
  // so the system can hand them to the right aggregator lane for CI
  // widening.
  std::vector<std::pair<uint64_t, uint64_t>> TakeLostMids();

 private:
  double UnitUniform(uint64_t salt, uint64_t query_id, uint64_t a,
                     uint64_t b) const;
  void NoteLostMid(uint64_t query_id, uint64_t mid);

  FaultPlan plan_;
  metrics::Counter& shares_dropped_;
  metrics::Counter& shares_corrupted_;
  metrics::Counter& shares_duplicated_;
  metrics::Counter& shares_delayed_;
  metrics::Counter& forward_timeouts_;
  metrics::Counter& proxy_crashes_;
  metrics::Counter& lost_mids_total_;
  metrics::Counter& retries_;
  metrics::Counter& failovers_;
  metrics::Counter& late_delivered_;
  metrics::Histogram& backoff_ms_;  // simulated backoff per retried attempt
  std::mutex mu_;
  std::vector<DeferredShare> deferred_;
  std::set<std::pair<uint64_t, uint64_t>> lost_mids_;  // (QID, MID)
};

}  // namespace privapprox::fault

#endif  // PRIVAPPROX_FAULT_FAULT_H_
