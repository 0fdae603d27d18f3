// MID share join (paper §3.2.4).
//
// The aggregator receives n share streams — one per proxy — and joins shares
// by message identifier. Each group holds one slot per source stream; when
// all n slots of one MID are filled the shares are XOR-combined into the
// original randomized message. Source slots make the join robust against
// redelivery: the same share arriving twice from one proxy cannot
// self-combine into garbage, it is counted as a duplicate. Replayed MIDs (a
// malicious client re-answering to distort the result) are detected and
// dropped; partial groups are evicted after a timeout so a share lost on one
// proxy path cannot leak memory.
//
// Every MID the joiner knows — open groups and the remembered completed and
// expired MIDs alike — lives in one open-addressing table of 24-byte entries
// (linear probing, backward-shift erase, no tombstones), and open groups park
// their share spans in one reused slot pool, so a warm joiner adds, joins
// and prunes without touching the heap.

#ifndef PRIVAPPROX_ENGINE_JOIN_H_
#define PRIVAPPROX_ENGINE_JOIN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "crypto/message.h"

namespace privapprox::engine {

struct JoinStats {
  uint64_t joined = 0;            // complete messages emitted
  uint64_t duplicates_dropped = 0;  // replayed MIDs
  uint64_t evicted_partial = 0;     // timed-out incomplete groups
  uint64_t late_dropped = 0;        // shares arriving after their group's
                                    // eviction (stragglers past the timeout)
  uint64_t malformed_dropped = 0;   // complete groups whose shares differ in
                                    // length: no split produces them, so the
                                    // group is dropped, never emitted
};

// The joined plaintext handed to the emit callback: a view into
// joiner-owned scratch that lives only for the duration of the call.
class JoinedPlaintext {
 public:
  explicit JoinedPlaintext(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  std::span<const uint8_t> bytes() const { return bytes_; }
  // Implicit, so an emit callback may take the plaintext as a vector.
  operator std::vector<uint8_t>() const {  // NOLINT
    return {bytes_.begin(), bytes_.end()};
  }

 private:
  std::span<const uint8_t> bytes_;
};

class MidJoiner {
 public:
  // Must not call back into the joiner.
  using EmitFn = std::function<void(uint64_t mid, JoinedPlaintext plaintext,
                                    int64_t timestamp_ms)>;

  // Called for every group EvictStale expires, with the group's MID and
  // first-seen event time — the fault-recovery layer uses it to attribute
  // the loss to the right window for confidence-interval widening.
  using EvictFn = std::function<void(uint64_t mid, int64_t first_seen_ms)>;

  // `expected_shares` = number of proxies n; `timeout_ms` bounds how long a
  // partial group may wait for its remaining shares.
  MidJoiner(size_t expected_shares, int64_t timeout_ms, EmitFn emit);
  MidJoiner(const MidJoiner&) = delete;
  MidJoiner& operator=(const MidJoiner&) = delete;

  void set_evict_fn(EvictFn fn) { evict_fn_ = std::move(fn); }

  // Feeds one share from stream `source` (the proxy index, < n);
  // `timestamp_ms` is the share's event time. Emits the joined plaintext as
  // soon as every source slot of the MID is filled. Throws
  // std::out_of_range for source >= n. A group whose shares disagree in
  // length is counted in stats().malformed_dropped instead of emitted, and
  // its MID is remembered like a joined one, so its replays are dropped.
  void Add(const crypto::MessageShare& share, int64_t timestamp_ms,
           size_t source);
  // Zero-copy variant: `payload` must point into storage that outlives the
  // pending group — the aggregator feeds broker slab views, which live as
  // long as the topic, so partial groups may safely park a span across
  // epochs. No payload bytes are copied until the group completes and is
  // XOR-combined into the joiner's plaintext scratch.
  void Add(uint64_t message_id, std::span<const uint8_t> payload,
           int64_t timestamp_ms, size_t source);

  // Evicts partial groups whose first share is older than now - timeout
  // (strictly: first_seen < now - timeout, so a group whose last share
  // lands exactly at the cutoff still joins). Evicted MIDs are remembered:
  // a straggler share arriving later is dropped as late (it must not start
  // a fresh, never-completable group). The remembered completed/expired
  // MIDs are pruned behind the same cutoff, so their number is bounded by
  // the MIDs seen within the last join timeout instead of growing for the
  // life of the run. One sequential sweep over the table does all three;
  // the order of evict callbacks within one call is unspecified.
  void EvictStale(int64_t now_ms);

  const JoinStats& stats() const { return stats_; }
  size_t pending_groups() const { return pending_; }
  // Number of remembered (completed + expired) MIDs — bounded by the
  // pruning in EvictStale; the boundedness test pins it.
  size_t remembered_mids() const { return size_ - pending_; }

  // The table's slot hash (MurmurHash3's fmix64 finalizer). Public so tests
  // can build MIDs that collide in one home slot.
  static uint64_t SlotHash(uint64_t mid);

 private:
  enum class State : uint8_t { kEmpty, kPending, kCompleted, kExpired };
  // One table entry. `stamp` is the first-seen event time of a pending
  // group, the completing share's event time of a completed MID, and the
  // eviction watermark of an expired one; EvictStale prunes remembered MIDs
  // whose stamp fell behind its cutoff — anything older is beyond the join
  // horizon anyway: at worst an ancient replay restarts a group that can
  // never complete and expires again at the next pass.
  struct Entry {
    uint64_t mid = 0;
    int64_t stamp = 0;
    uint32_t group = 0;  // pending only: block index into pool_
    State state = State::kEmpty;
  };
  // One parked share. The copying Add points `view` at owned_[slot].
  struct Slot {
    std::span<const uint8_t> view;
    bool filled = false;
  };
  // Returns the table's pages to the OS (see Grow).
  struct Unmap {
    size_t bytes;
    void operator()(Entry* entries) const;
  };

  void AddImpl(uint64_t message_id, std::span<const uint8_t> payload,
               int64_t timestamp_ms, size_t source, bool copy);
  // Index of `mid`'s entry, or of the empty slot where it would go.
  size_t Probe(uint64_t mid) const;
  void Grow();
  // Backward-shift deletion: pulls later entries of the probe run into the
  // hole so lookups never need tombstones.
  void EraseAt(size_t index);
  uint32_t AcquireGroup();
  void ReleaseGroup(uint32_t group);

  size_t expected_shares_;
  int64_t timeout_ms_;
  EmitFn emit_;
  EvictFn evict_fn_;
  std::unique_ptr<Entry[], Unmap> table_{nullptr, Unmap{0}};
  size_t capacity_ = 0;  // a power of two, or 0 before the first Add
  size_t size_ = 0;      // occupied entries
  size_t pending_ = 0;   // entries in State::kPending
  // expected_shares_ slots per open group, blocks recycled via free_groups_.
  std::vector<Slot> pool_;
  std::vector<uint32_t> free_groups_;
  // Payload copies of the copying Add, indexed like pool_; grown only when
  // that overload is used, and reused (capacity kept) across groups.
  std::vector<std::vector<uint8_t>> owned_;
  std::vector<uint8_t> scratch_;  // the plaintext handed to emit_
  JoinStats stats_;
};

}  // namespace privapprox::engine

#endif  // PRIVAPPROX_ENGINE_JOIN_H_
