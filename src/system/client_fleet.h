// The client half of an epoch (paper §3.2 steps I-III, Fig 3), owned by
// the epoch driver both deployments run (system/epoch_driver.h).
//
// A ClientFleet owns the client::Client objects and is the one place that
// (a) builds them from a seed, (b) hands each proxy's query announcement to
// that proxy's cohort, and (c) answers a client range — sample, randomize,
// XOR-split — into per-(proxy, query) lane batches in client-id order,
// routing each share through the fault injector when one is set. The
// clients live contiguously, and each proxy's announcement is compiled once
// and shared by its whole cohort, so a client costs its own data and RNG
// streams and little else (DESIGN.md §6d).
// The driver answers one contiguous range per pool thread (the whole
// fleet as one range without a pool) and produces the batches over its
// proxy endpoints' buses. Because both deployments run this code, every
// lane-topic byte of a TCP run equals the in-process run's by construction
// (DESIGN.md §6j).

#ifndef PRIVAPPROX_SYSTEM_CLIENT_FLEET_H_
#define PRIVAPPROX_SYSTEM_CLIENT_FLEET_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "client/client.h"
#include "common/arena.h"
#include "fault/fault.h"
#include "metrics/metrics.h"
#include "transport/message_bus.h"

namespace privapprox::system {

// One (proxy, query) lane's share records from an answered client range,
// in client-id order: the ones delivered within their retries, and the
// ones the fault injector failed over once their retries ran out (empty
// without an injector). Both go to the same lane in-topic, failovers last.
struct LaneRecords {
  std::vector<broker::ProduceView> records;
  std::vector<broker::ProduceView> failover;
};

// A client range's answers. lanes[j][k] holds proxy j's records for the
// k-th QID the range was answered for; participants[k] counts the clients
// that passed that query's sampling coin. Record payloads point into the
// arena the range was answered into.
struct AnsweredRange {
  std::vector<std::vector<LaneRecords>> lanes;
  std::vector<uint64_t> participants;
};

class ClientFleet {
 public:
  // num_clients clients over num_proxies proxies, client i seeded from
  // (seed, i). Registers the fleet's decision counters on `registry`, which
  // must outlive the fleet: privapprox_participants_total and
  // privapprox_client_skips_total count answered and skipped (client,
  // query) decisions, privapprox_shares_sent_total the client -> proxy
  // shares the answered ones sent.
  ClientFleet(size_t num_clients, size_t num_proxies, uint64_t seed,
              bool invert_answers, metrics::Registry& registry);

  size_t size() const { return clients_.size(); }
  // The fleet never grows, so a returned reference stays valid for the
  // fleet's lifetime.
  client::Client& client(size_t index) { return clients_.at(index); }

  // Submission phase, last step: reads the freshest announcement on proxy
  // `proxy`'s client-facing query topic through `bus` and subscribes that
  // proxy's cohort — client i learns of queries from proxy i mod n. The
  // bytes are parsed and verified once for the cohort
  // (client::CompileAnnouncement) and the one compiled query is shared by
  // every client in it. Throws std::logic_error when the topic holds no
  // announcement; a refused announcement throws from CompileAnnouncement
  // before any client is subscribed.
  void DeliverAnnouncement(size_t proxy, transport::MessageBus& bus,
                           const std::string& topic);

  // Answers clients [begin, end) at `now_ms` for `qids` — ascending, and
  // exactly every client's subscription set. Shares are encoded into
  // `arena`. With an injector, each share takes the route it decides
  // (keyed by `epoch` for proxy crashes): lost shares vanish, deferred ones
  // are parked in the injector, corrupted ones are truncated, failed-over
  // ones land in the failover list, duplicates appear twice. Counts the
  // range's decisions once. Thread-safe across disjoint ranges.
  AnsweredRange Answer(size_t begin, size_t end, int64_t now_ms,
                       std::span<const uint64_t> qids, EpochArena& arena,
                       fault::FaultInjector* injector = nullptr,
                       uint64_t epoch = 0);

  // Answered (client, query) decisions so far.
  uint64_t participants() const { return participants_.Value(); }

 private:
  size_t num_proxies_;
  std::vector<client::Client> clients_;  // sized once, never grows
  metrics::Counter& participants_;
  metrics::Counter& skips_;
  metrics::Counter& shares_sent_;
};

}  // namespace privapprox::system

#endif  // PRIVAPPROX_SYSTEM_CLIENT_FLEET_H_
