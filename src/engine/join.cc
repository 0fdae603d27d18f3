#include "engine/join.h"

#include <sys/mman.h>

#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <utility>

#include "common/xor_bytes.h"

namespace privapprox::engine {

namespace {

constexpr size_t kInitialCapacity = 16;

// now_ms - timeout_ms, clamped at INT64_MIN: below it no stamp can lie.
int64_t Cutoff(int64_t now_ms, int64_t timeout_ms) {
  return now_ms < std::numeric_limits<int64_t>::min() + timeout_ms
             ? std::numeric_limits<int64_t>::min()
             : now_ms - timeout_ms;
}

}  // namespace

MidJoiner::MidJoiner(size_t expected_shares, int64_t timeout_ms, EmitFn emit)
    : expected_shares_(expected_shares),
      timeout_ms_(timeout_ms),
      emit_(std::move(emit)) {
  if (expected_shares < 2) {
    throw std::invalid_argument("MidJoiner: need at least two shares");
  }
  if (timeout_ms <= 0) {
    throw std::invalid_argument("MidJoiner: timeout must be > 0");
  }
}

uint64_t MidJoiner::SlotHash(uint64_t mid) {
  // Not the raw MID, which clients choose, and not the SplitMix64
  // finalizer broker::PartitionForKey places records with either: every
  // MID reaching one shard's joiner sits in one partition, so it shares
  // that hash's low bits, and a table indexed by them would leave most home
  // slots unused.
  mid ^= mid >> 33;
  mid *= 0xff51afd7ed558ccdULL;
  mid ^= mid >> 33;
  mid *= 0xc4ceb9fe1a85ec53ULL;
  mid ^= mid >> 33;
  return mid;
}

size_t MidJoiner::Probe(uint64_t mid) const {
  const size_t mask = capacity_ - 1;
  size_t i = SlotHash(mid) & mask;
  while (table_[i].state != State::kEmpty && table_[i].mid != mid) {
    i = (i + 1) & mask;
  }
  return i;
}

void MidJoiner::Unmap::operator()(Entry* entries) const {
  munmap(entries, bytes);
}

void MidJoiner::Grow() {
  const size_t old_capacity = capacity_;
  const size_t capacity =
      old_capacity == 0 ? kInitialCapacity : old_capacity * 2;
  // The entries are mapped straight from the OS, not taken from malloc:
  // glibc raises its mmap threshold to the size of each mapped block that is
  // freed, so every array a doubling table outgrows would push later
  // mid-size allocations (broker slab chunks among them) into malloc arenas,
  // where the memory they free stays resident.
  const size_t bytes = capacity * sizeof(Entry);
  void* pages = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages == MAP_FAILED) {
    throw std::bad_alloc();
  }
  Entry* entries = static_cast<Entry*>(pages);
  std::uninitialized_value_construct_n(entries, capacity);
  const std::unique_ptr<Entry[], Unmap> old = std::exchange(
      table_, std::unique_ptr<Entry[], Unmap>(entries, Unmap{bytes}));
  capacity_ = capacity;
  const size_t mask = capacity_ - 1;
  for (size_t k = 0; k < old_capacity; ++k) {
    if (old[k].state == State::kEmpty) {
      continue;
    }
    size_t i = SlotHash(old[k].mid) & mask;
    while (table_[i].state != State::kEmpty) {
      i = (i + 1) & mask;
    }
    table_[i] = old[k];
  }
}

void MidJoiner::EraseAt(size_t hole) {
  const size_t mask = capacity_ - 1;
  for (size_t next = (hole + 1) & mask; table_[next].state != State::kEmpty;
       next = (next + 1) & mask) {
    // The entry at `next` may fill the hole unless its home slot lies
    // cyclically in (hole, next] — moving it before its home would hide it
    // from lookups.
    const size_t home = SlotHash(table_[next].mid) & mask;
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      table_[hole] = table_[next];
      hole = next;
    }
  }
  table_[hole].state = State::kEmpty;
  --size_;
}

uint32_t MidJoiner::AcquireGroup() {
  if (!free_groups_.empty()) {
    const uint32_t group = free_groups_.back();
    free_groups_.pop_back();
    return group;
  }
  const size_t group = pool_.size() / expected_shares_;
  if (group > std::numeric_limits<uint32_t>::max()) {
    throw std::length_error("MidJoiner: too many open groups");
  }
  pool_.resize(pool_.size() + expected_shares_);
  return static_cast<uint32_t>(group);
}

void MidJoiner::ReleaseGroup(uint32_t group) {
  Slot* slots = &pool_[group * expected_shares_];
  for (size_t s = 0; s < expected_shares_; ++s) {
    slots[s].filled = false;
  }
  free_groups_.push_back(group);
}

void MidJoiner::Add(uint64_t message_id, std::span<const uint8_t> payload,
                    int64_t timestamp_ms, size_t source) {
  if (source >= expected_shares_) {
    throw std::out_of_range("MidJoiner::Add: bad source index");
  }
  if (capacity_ == 0) {
    Grow();
  }
  size_t index = Probe(message_id);
  switch (table_[index].state) {
    case State::kCompleted:
      ++stats_.duplicates_dropped;
      return;
    case State::kExpired:
      // Straggler for a group already evicted at the watermark: starting a
      // fresh group could never complete (its siblings are gone) and would
      // double-count the loss on the next eviction pass.
      ++stats_.late_dropped;
      return;
    case State::kEmpty:
      // Keep the load at most 3/4 so every probe run ends at an empty slot
      // after a few steps.
      if ((size_ + 1) * 4 > capacity_ * 3) {
        Grow();
        index = Probe(message_id);
      }
      table_[index] = Entry{message_id, timestamp_ms, AcquireGroup(),
                            State::kPending};
      ++size_;
      ++pending_;
      break;
    case State::kPending:
      break;
  }
  Entry& entry = table_[index];
  const std::span<Slot> slots(&pool_[entry.group * expected_shares_],
                              expected_shares_);
  if (slots[source].filled) {
    // Redelivery on the same stream (or a replay through it).
    ++stats_.duplicates_dropped;
    return;
  }
  bool same_length = true;
  for (size_t s = 0; s < expected_shares_; ++s) {
    if (s == source) {
      continue;
    }
    if (!slots[s].filled) {
      // The group stays open: park a copy, so the caller's bytes are free
      // to go the moment this call returns.
      slots[source].bytes.assign(payload.begin(), payload.end());
      slots[source].filled = true;
      return;
    }
    same_length = same_length && slots[s].bytes.size() == payload.size();
  }
  // Complete: remember the MID (a replay within one timeout of this share is
  // still detected) and XOR-combine every share (Eq 12: M = ME xor MK_2
  // xor ... xor MK_n). The first pair goes through the three-operand
  // XorBytesInto, straight from the caller's span and one parked copy into
  // the scratch.
  const int64_t first_seen = entry.stamp;
  entry.state = State::kCompleted;
  entry.stamp = timestamp_ms;
  --pending_;
  if (same_length) {
    const size_t len = payload.size();
    scratch_.resize(len);
    const size_t first = source == 0 ? 1 : 0;
    XorBytesInto(scratch_.data(), payload.data(), slots[first].bytes.data(),
                 len);
    for (size_t s = first + 1; s < expected_shares_; ++s) {
      if (s != source) {
        XorBytesInPlace(scratch_.data(), slots[s].bytes.data(), len);
      }
    }
  }
  ReleaseGroup(entry.group);
  if (!same_length) {
    // No XOR split yields shares of different lengths: a broken or hostile
    // client. Dropping the group keeps one client from aborting the join.
    ++stats_.malformed_dropped;
    return;
  }
  ++stats_.joined;
  emit_(message_id, JoinedPlaintext(scratch_), first_seen);
}

void MidJoiner::EvictStale(int64_t now_ms) {
  if (size_ == 0) {
    return;
  }
  const int64_t cutoff = Cutoff(now_ms, timeout_ms_);
  const size_t mask = capacity_ - 1;
  // Sweep the whole table once, starting just past an empty slot: no probe
  // run wraps across the sweep's start, so an erase only shifts entries the
  // sweep has not reached yet into the current slot, which is then
  // examined again.
  size_t start = 0;
  while (table_[start].state != State::kEmpty) {
    ++start;
  }
  for (size_t step = 1; step <= capacity_;) {
    const size_t i = (start + step) & mask;
    Entry& entry = table_[i];
    if (entry.state == State::kEmpty || entry.stamp >= cutoff) {
      ++step;
      continue;
    }
    if (entry.state == State::kPending) {
      // Expire the partial group; its MID stays remembered, stamped with the
      // eviction watermark (never behind the cutoff, so it survives this
      // sweep).
      ++stats_.evicted_partial;
      const int64_t first_seen = entry.stamp;
      entry.state = State::kExpired;
      entry.stamp = now_ms;
      --pending_;
      ReleaseGroup(entry.group);
      if (evict_fn_) {
        evict_fn_(entry.mid, first_seen);
      }
      ++step;
      continue;
    }
    // A completed MID is forgotten one timeout after its completing share's
    // event time, an expired MID one timeout after its eviction.
    EraseAt(i);
  }
}

}  // namespace privapprox::engine
