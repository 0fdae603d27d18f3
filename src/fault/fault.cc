#include "fault/fault.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace privapprox::fault {

namespace {

// Decision-kind salts: each independent random decision about the same
// (mid, proxy) pair hashes with a distinct salt so the draws are
// uncorrelated.
constexpr uint64_t kSaltFate = 0x01;       // drop/corrupt/duplicate/delay
constexpr uint64_t kSaltCorruptLen = 0x02;  // truncation length
constexpr uint64_t kSaltCrash = 0x03;       // per (epoch, proxy)
constexpr uint64_t kSaltCrashPos = 0x04;    // sent before/after the crash
constexpr uint64_t kSaltTimeout = 0x05;     // per forward attempt

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

void CheckProbability(double p, const char* what) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument(std::string("FaultPlan: ") + what +
                                " must be in [0, 1]");
  }
}

}  // namespace

void FaultPlan::Validate() const {
  CheckProbability(drop_probability, "drop_probability");
  CheckProbability(corrupt_probability, "corrupt_probability");
  CheckProbability(duplicate_probability, "duplicate_probability");
  CheckProbability(delay_probability, "delay_probability");
  CheckProbability(timeout_probability, "timeout_probability");
  CheckProbability(crash_probability, "crash_probability");
  CheckProbability(crash_point, "crash_point");
  if (drop_probability + corrupt_probability + duplicate_probability +
          delay_probability >
      1.0) {
    throw std::invalid_argument(
        "FaultPlan: share fate probabilities must sum to <= 1");
  }
  if (retry.max_attempts == 0) {
    throw std::invalid_argument("FaultPlan: retry.max_attempts must be >= 1");
  }
}

FaultInjector::FaultInjector(FaultPlan plan, metrics::Registry& registry)
    : plan_(plan),
      shares_dropped_(registry.GetCounter(
          "privapprox_fault_shares_dropped_total",
          "Shares dropped in transit by the fault injector")),
      shares_corrupted_(registry.GetCounter(
          "privapprox_fault_shares_corrupted_total",
          "Shares truncated below the MID header by the fault injector")),
      shares_duplicated_(registry.GetCounter(
          "privapprox_fault_shares_duplicated_total",
          "Shares delivered twice by the fault injector")),
      shares_delayed_(registry.GetCounter(
          "privapprox_fault_shares_delayed_total",
          "Delay-fated shares deferred to the next epoch")),
      forward_timeouts_(registry.GetCounter(
          "privapprox_fault_forward_timeouts_total",
          "Client -> proxy forward attempts that timed out")),
      proxy_crashes_(registry.GetCounter(
          "privapprox_fault_proxy_crashes_total",
          "Proxy-epochs spent crashed (restart at the next epoch)")),
      lost_mids_total_(registry.GetCounter(
          "privapprox_fault_lost_mids_total",
          "Distinct (query, MID) pairs the injector knows can never join")),
      retries_(registry.GetCounter(
          "privapprox_recovery_retries_total",
          "Forward attempts retried after a timeout")),
      failovers_(registry.GetCounter(
          "privapprox_recovery_failovers_total",
          "Shares that failed over to their proxy's lane after retries "
          "were exhausted")),
      late_delivered_(registry.GetCounter(
          "privapprox_recovery_late_delivered_total",
          "Deferred shares replayed at the start of a later epoch")),
      backoff_ms_(registry.GetHistogram(
          "privapprox_recovery_backoff_ms",
          "Simulated retry backoff per timed-out forward in milliseconds")) {
  plan_.Validate();
}

FaultTotals FaultInjector::totals() const {
  return FaultTotals{shares_dropped_.Value(),   shares_corrupted_.Value(),
                     shares_duplicated_.Value(), shares_delayed_.Value(),
                     forward_timeouts_.Value(), proxy_crashes_.Value(),
                     lost_mids_total_.Value(),  retries_.Value(),
                     failovers_.Value(),        late_delivered_.Value()};
}

// Uniform in [0, 1) from a pure hash of (seed, salt, query, a, b):
// bit-identical for a given plan regardless of call order, thread, or
// worker count. Folding the query id in gives each query its own
// independent fault stream over the same (mid, proxy) space.
double FaultInjector::UnitUniform(uint64_t salt, uint64_t query_id,
                                  uint64_t a, uint64_t b) const {
  uint64_t h = SplitMix64(plan_.seed ^ salt);
  h = SplitMix64(h ^ query_id);
  h = SplitMix64(h ^ a);
  h = SplitMix64(h ^ b);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool FaultInjector::ProxyCrashes(uint64_t epoch, size_t proxy) const {
  if (plan_.crash_probability <= 0.0) {
    return false;
  }
  // query_id 0 (never a real QID): crashes are per proxy, not per lane.
  return UnitUniform(kSaltCrash, 0, epoch, proxy) < plan_.crash_probability;
}

void FaultInjector::CountCrashes(uint64_t epoch, size_t num_proxies) {
  for (size_t proxy = 0; proxy < num_proxies; ++proxy) {
    if (ProxyCrashes(epoch, proxy)) {
      proxy_crashes_.Increment();
    }
  }
}

void FaultInjector::NoteLostMid(uint64_t query_id, uint64_t mid) {
  std::lock_guard<std::mutex> lock(mu_);
  if (lost_mids_.insert({query_id, mid}).second) {
    lost_mids_total_.Increment();
  }
}

ShareOutcome FaultInjector::RouteShare(uint64_t query_id, uint64_t mid,
                                       size_t proxy, uint64_t epoch) {
  ShareOutcome out;

  // --- In-transit fate: one uniform cascaded through the (mutually
  // exclusive) fault probabilities in fixed priority order.
  double u = UnitUniform(kSaltFate, query_id, mid, proxy);
  if (u < plan_.drop_probability) {
    shares_dropped_.Increment();
    // A missing share makes the whole MID unjoinable (for this query).
    NoteLostMid(query_id, mid);
    out.route = ShareRoute::kLost;
    return out;
  }
  u -= plan_.drop_probability;
  if (u < plan_.corrupt_probability) {
    // Truncate below the 8-byte MID header: the decode path counts the
    // record malformed, so the corrupted share can never join (and can
    // never reach the joiner with a mismatched payload length).
    out.corrupt_to = static_cast<size_t>(
        UnitUniform(kSaltCorruptLen, query_id, mid, proxy) * 8.0);
    out.corrupt_to = std::min<size_t>(out.corrupt_to, 7);
    shares_corrupted_.Increment();
    NoteLostMid(query_id, mid);  // cannot join without this share's bytes
  } else {
    u -= plan_.corrupt_probability;
    if (u < plan_.duplicate_probability) {
      shares_duplicated_.Increment();
      out.duplicate = true;
    } else {
      u -= plan_.duplicate_probability;
      if (u < plan_.delay_probability) {
        shares_delayed_.Increment();
        out.route = ShareRoute::kDeferred;
        return out;
      }
    }
  }

  // --- Forward protocol: per-attempt timeouts, bounded exponential backoff
  // between attempts (simulated virtual time), failover once exhausted. A
  // share sent after a crashing proxy's crash point times out every attempt.
  const bool proxy_down =
      ProxyCrashes(epoch, proxy) &&
      UnitUniform(kSaltCrashPos, query_id, mid, proxy) >= plan_.crash_point;
  if (plan_.timeout_probability <= 0.0 && !proxy_down) {
    return out;
  }
  for (size_t attempt = 0; attempt < plan_.retry.max_attempts; ++attempt) {
    const bool timed_out =
        proxy_down ||
        UnitUniform(kSaltTimeout + 16 * attempt, query_id, mid, proxy) <
            plan_.timeout_probability;
    if (!timed_out) {
      return out;  // delivered (possibly after retries already counted)
    }
    forward_timeouts_.Increment();
    if (attempt + 1 < plan_.retry.max_attempts) {
      retries_.Increment();
      backoff_ms_.Observe(
          static_cast<uint64_t>(plan_.retry.BackoffForAttempt(attempt)));
    }
  }
  // Retries exhausted.
  failovers_.Increment();
  out.route = ShareRoute::kFailover;
  return out;
}

void FaultInjector::Defer(uint64_t query_id, size_t proxy, uint64_t mid,
                          std::span<const uint8_t> lane_record,
                          int64_t timestamp_ms) {
  DeferredShare share;
  share.query_id = query_id;
  share.proxy = proxy;
  share.message_id = mid;
  share.record.assign(lane_record.begin(), lane_record.end());
  share.timestamp_ms = timestamp_ms;
  std::lock_guard<std::mutex> lock(mu_);
  deferred_.push_back(std::move(share));
}

std::vector<DeferredShare> FaultInjector::TakeDeferred() {
  std::vector<DeferredShare> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.swap(deferred_);
  }
  // Arrival order at the injector depends on thread interleaving; sorting
  // by (proxy, QID, MID) restores a deterministic redelivery order that
  // also groups each lane's records for batched replay.
  std::sort(out.begin(), out.end(),
            [](const DeferredShare& a, const DeferredShare& b) {
              if (a.proxy != b.proxy) {
                return a.proxy < b.proxy;
              }
              if (a.query_id != b.query_id) {
                return a.query_id < b.query_id;
              }
              return a.message_id < b.message_id;
            });
  late_delivered_.Increment(out.size());
  return out;
}

std::vector<std::pair<uint64_t, uint64_t>> FaultInjector::TakeLostMids() {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.assign(lost_mids_.begin(), lost_mids_.end());
    lost_mids_.clear();
  }
  return out;
}

}  // namespace privapprox::fault
