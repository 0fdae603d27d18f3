// Tests for the dataflow engine: sliding-window assignment, the windowed
// buffer with watermarks and late data, and the MID share join (including
// replay/duplicate defense and partial-group eviction).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "crypto/xor_cipher.h"
#include "engine/join.h"
#include "engine/window.h"

namespace privapprox::engine {
namespace {

// ------------------------------------------------------------------ windows

TEST(SlidingWindowAssignerTest, TumblingWindow) {
  const SlidingWindowAssigner assigner(10, 10);
  const auto windows = assigner.WindowsFor(25);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].start_ms, 20);
  EXPECT_EQ(windows[0].end_ms, 30);
}

TEST(SlidingWindowAssignerTest, OverlappingWindows) {
  // Window 30 ms sliding by 10 ms: each timestamp is in 3 windows.
  const SlidingWindowAssigner assigner(30, 10);
  const auto windows = assigner.WindowsFor(35);
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].start_ms, 30);
  EXPECT_EQ(windows[1].start_ms, 20);
  EXPECT_EQ(windows[2].start_ms, 10);
  for (const Window& w : windows) {
    EXPECT_LE(w.start_ms, 35);
    EXPECT_GT(w.end_ms, 35);
  }
}

TEST(SlidingWindowAssignerTest, BoundaryTimestampBelongsToNewWindow) {
  const SlidingWindowAssigner assigner(20, 10);
  const auto windows = assigner.WindowsFor(20);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].start_ms, 20);  // [20, 40)
  EXPECT_EQ(windows[1].start_ms, 10);  // [10, 30)
}

TEST(SlidingWindowAssignerTest, NegativeTimestamps) {
  const SlidingWindowAssigner assigner(10, 10);
  const auto windows = assigner.WindowsFor(-5);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].start_ms, -10);
  EXPECT_EQ(windows[0].end_ms, 0);
}

TEST(SlidingWindowAssignerTest, RejectsBadPeriods) {
  EXPECT_THROW(SlidingWindowAssigner(0, 1), std::invalid_argument);
  EXPECT_THROW(SlidingWindowAssigner(10, 0), std::invalid_argument);
  EXPECT_THROW(SlidingWindowAssigner(10, 20), std::invalid_argument);
}

TEST(SlidingWindowAssignerTest, TimestampExactlyOnWindowStart) {
  // Tumbling: a timestamp on a boundary belongs to the window starting
  // there, never the one ending there ([start, end) semantics).
  const SlidingWindowAssigner assigner(10, 10);
  const auto windows = assigner.WindowsFor(20);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].start_ms, 20);
  EXPECT_EQ(windows[0].end_ms, 30);
}

TEST(SlidingWindowAssignerTest, TimestampJustBeforeWindowEnd) {
  const SlidingWindowAssigner assigner(10, 10);
  const auto windows = assigner.WindowsFor(19);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].start_ms, 10);
  EXPECT_EQ(windows[0].end_ms, 20);
}

TEST(SlidingWindowAssignerTest, SlidingBoundaryExcludesEndingWindow) {
  // Length 30, slide 10: ts 30 is in [30,60), [20,50), [10,40) — but not
  // [0,30), which ends exactly at 30.
  const SlidingWindowAssigner assigner(30, 10);
  const auto windows = assigner.WindowsFor(30);
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].start_ms, 30);
  EXPECT_EQ(windows[1].start_ms, 20);
  EXPECT_EQ(windows[2].start_ms, 10);
}

TEST(SlidingWindowAssignerTest, NegativeTimestampOnBoundary) {
  const SlidingWindowAssigner assigner(10, 10);
  const auto windows = assigner.WindowsFor(-10);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].start_ms, -10);
  EXPECT_EQ(windows[0].end_ms, 0);
}

TEST(SlidingWindowAssignerTest, NegativeTimestampsSliding) {
  const SlidingWindowAssigner assigner(20, 10);
  const auto windows = assigner.WindowsFor(-15);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].start_ms, -20);  // [-20, 0)
  EXPECT_EQ(windows[1].start_ms, -30);  // [-30, -10)
}

TEST(SlidingWindowAssignerTest, AppendWindowsForMatchesWindowsFor) {
  // The allocation-free fast path (including the tumbling shortcut) must
  // agree with the reference implementation everywhere, and must clear any
  // stale content in the output vector.
  for (const auto& [length, slide] :
       {std::pair<int64_t, int64_t>{10, 10}, {30, 10}, {20, 10}, {7, 3}}) {
    const SlidingWindowAssigner assigner(length, slide);
    std::vector<Window> scratch = {Window{-999, -999}};
    for (int64_t ts = -45; ts <= 45; ++ts) {
      assigner.AppendWindowsFor(ts, scratch);
      EXPECT_EQ(scratch, assigner.WindowsFor(ts))
          << "length=" << length << " slide=" << slide << " ts=" << ts;
    }
  }
}

// --------------------------------------------- accumulating window buffer

// Minimal additive accumulator for AccumulatingWindowBuffer tests.
struct SumAcc {
  int64_t sum = 0;
  size_t n = 0;
  void Add(int v) {
    sum += v;
    ++n;
  }
};

TEST(AccumulatingWindowBufferTest, FoldsAndDrainsOnWatermark) {
  AccumulatingWindowBuffer<SumAcc> buffer{SlidingWindowAssigner(10, 10)};
  buffer.Fold(1, 100, [] { return SumAcc{}; });
  buffer.Fold(5, 10, [] { return SumAcc{}; });
  buffer.Fold(12, 7, [] { return SumAcc{}; });
  EXPECT_EQ(buffer.pending_windows(), 2u);

  std::vector<std::pair<Window, SumAcc>> fired;
  buffer.DrainFired(10, fired);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].first.start_ms, 0);
  EXPECT_EQ(fired[0].second.sum, 110);
  EXPECT_EQ(fired[0].second.n, 2u);
  EXPECT_EQ(buffer.pending_windows(), 1u);

  // Watermark never moves backwards; nothing re-fires.
  buffer.DrainFired(5, fired);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(buffer.watermark_ms(), 10);

  // The next advance fires the next window, and only it.
  buffer.DrainFired(20, fired);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[1].first.start_ms, 10);
  EXPECT_EQ(fired[1].second.sum, 7);
  EXPECT_EQ(buffer.pending_windows(), 0u);
}

TEST(AccumulatingWindowBufferTest, SlidingWindowsEachAccumulate) {
  AccumulatingWindowBuffer<SumAcc> buffer{SlidingWindowAssigner(20, 10)};
  buffer.Fold(15, 3, [] { return SumAcc{}; });  // in [0,20) and [10,30)
  std::vector<std::pair<Window, SumAcc>> fired;
  buffer.DrainFired(40, fired);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0].first.start_ms, 0);   // ascending window order
  EXPECT_EQ(fired[1].first.start_ms, 10);
  EXPECT_EQ(fired[0].second.sum, 3);
  EXPECT_EQ(fired[1].second.sum, 3);

  // DrainAll empties every pending window, here three overlapping ones, in
  // ascending window order.
  AccumulatingWindowBuffer<SumAcc> wide{SlidingWindowAssigner(30, 10)};
  wide.Fold(25, 4, [] { return SumAcc{}; });  // [0,30), [10,40), [20,50)
  EXPECT_EQ(wide.pending_windows(), 3u);
  std::vector<std::pair<Window, SumAcc>> all;
  wide.DrainAll(all);
  ASSERT_EQ(all.size(), 3u);
  for (size_t w = 0; w < all.size(); ++w) {
    EXPECT_EQ(all[w].first.start_ms, static_cast<int64_t>(10 * w));
    EXPECT_EQ(all[w].second.sum, 4);
  }
  EXPECT_EQ(wide.pending_windows(), 0u);
}

TEST(AccumulatingWindowBufferTest, LateFoldsDropAndDrainAllPinsWatermark) {
  AccumulatingWindowBuffer<SumAcc> buffer{SlidingWindowAssigner(10, 10)};
  std::vector<std::pair<Window, SumAcc>> none;
  buffer.DrainFired(50, none);
  EXPECT_TRUE(none.empty());
  buffer.Fold(30, 1, [] { return SumAcc{}; });  // behind the watermark
  EXPECT_EQ(buffer.late_dropped(), 1u);
  EXPECT_EQ(buffer.pending_windows(), 0u);  // a late fold opens no window
  buffer.Fold(60, 2, [] { return SumAcc{}; });
  std::vector<std::pair<Window, SumAcc>> fired;
  buffer.DrainAll(fired);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].second.sum, 2);
  // Stream over: later folds are late, and nothing fires again.
  buffer.Fold(1000, 3, [] { return SumAcc{}; });
  EXPECT_EQ(buffer.pending_windows(), 0u);
  EXPECT_EQ(buffer.late_dropped(), 2u);
  buffer.DrainFired(INT64_MAX, fired);
  EXPECT_EQ(fired.size(), 1u);
}

// --------------------------------------------------------------------- join

crypto::MessageShare Share(uint64_t mid, std::vector<uint8_t> payload) {
  return crypto::MessageShare{mid, std::move(payload)};
}

TEST(MidJoinerTest, JoinsWhenAllSharesArrive) {
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> emitted;
  MidJoiner joiner(2, 1000,
                   [&](uint64_t mid, std::vector<uint8_t> plaintext, int64_t) {
                     emitted.emplace_back(mid, std::move(plaintext));
                   });
  joiner.Add(Share(7, {0xF0}), 10, /*source=*/0);
  EXPECT_TRUE(emitted.empty());
  joiner.Add(Share(7, {0x0F}), 12, /*source=*/1);
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0].first, 7u);
  EXPECT_EQ(emitted[0].second, std::vector<uint8_t>{0xFF});
  EXPECT_EQ(joiner.stats().joined, 1u);
}

TEST(MidJoinerTest, ParkedShareSurvivesCallerOverwritingItsBytes) {
  // The span Add copies every share that leaves its group open, so a caller
  // may recycle the bytes — a released broker slab, a reused TCP client
  // slab — the moment Add returns. One buffer carries all three shares of
  // each group here, rewritten between calls.
  std::vector<std::vector<uint8_t>> emitted;
  MidJoiner joiner(3, 1000,
                   [&](uint64_t, JoinedPlaintext plaintext, int64_t) {
                     emitted.emplace_back(plaintext.bytes().begin(),
                                          plaintext.bytes().end());
                   });
  const std::vector<std::vector<uint8_t>> shares = {{0x12, 0x34, 0x56, 0x78},
                                                    {0xF0, 0x0F, 0xAA, 0x55},
                                                    {0x01, 0x02, 0x04, 0x08}};
  std::vector<uint8_t> buffer(4);
  for (uint64_t mid = 1; mid <= 2; ++mid) {
    for (size_t source : {size_t{2}, size_t{0}, size_t{1}}) {
      buffer = shares[source];
      joiner.Add(mid, buffer, 10, source);
      std::fill(buffer.begin(), buffer.end(), 0xEE);
    }
  }
  const std::vector<uint8_t> expected = {
      0x12 ^ 0xF0 ^ 0x01, 0x34 ^ 0x0F ^ 0x02, 0x56 ^ 0xAA ^ 0x04,
      0x78 ^ 0x55 ^ 0x08};
  ASSERT_EQ(emitted.size(), 2u);
  EXPECT_EQ(emitted[0], expected);
  EXPECT_EQ(emitted[1], expected);
}

TEST(MidJoinerTest, EmitsWithFirstSeenTimestamp) {
  int64_t emitted_ts = -1;
  MidJoiner joiner(2, 1000,
                   [&](uint64_t, std::vector<uint8_t>, int64_t ts) {
                     emitted_ts = ts;
                   });
  joiner.Add(Share(1, {0}), 100, 0);
  joiner.Add(Share(1, {0}), 250, 1);
  EXPECT_EQ(emitted_ts, 100);
}

TEST(MidJoinerTest, ThreeWayJoinRoundTrip) {
  crypto::XorSplitter splitter(3, crypto::ChaCha20Rng::FromSeed(1, 0));
  const std::vector<uint8_t> plaintext = {1, 2, 3, 4};
  const auto shares = splitter.Split(plaintext);
  std::vector<uint8_t> recovered;
  MidJoiner joiner(3, 1000,
                   [&](uint64_t, std::vector<uint8_t> out, int64_t) {
                     recovered = std::move(out);
                   });
  // Arrive out of order (the share's own source index still identifies the
  // stream it traveled on).
  joiner.Add(shares[2], 1, 2);
  joiner.Add(shares[0], 2, 0);
  joiner.Add(shares[1], 3, 1);
  EXPECT_EQ(recovered, plaintext);
}

TEST(MidJoinerTest, ReplayedMidIsDropped) {
  int emitted = 0;
  MidJoiner joiner(2, 1000,
                   [&](uint64_t, std::vector<uint8_t>, int64_t) { ++emitted; });
  joiner.Add(Share(5, {1}), 0, 0);
  joiner.Add(Share(5, {2}), 0, 1);
  EXPECT_EQ(emitted, 1);
  // A malicious client replays the same MID to distort the count (§3.2.4).
  joiner.Add(Share(5, {1}), 1, 0);
  joiner.Add(Share(5, {2}), 1, 1);
  EXPECT_EQ(emitted, 1);
  EXPECT_EQ(joiner.stats().duplicates_dropped, 2u);
}

TEST(MidJoinerTest, EvictsStalePartialGroups) {
  int emitted = 0;
  MidJoiner joiner(2, 100,
                   [&](uint64_t, std::vector<uint8_t>, int64_t) { ++emitted; });
  joiner.Add(Share(9, {1}), 0, 0);  // second share never arrives
  EXPECT_EQ(joiner.pending_groups(), 1u);
  joiner.EvictStale(200);
  EXPECT_EQ(joiner.pending_groups(), 0u);
  EXPECT_EQ(joiner.stats().evicted_partial, 1u);
  // The straggler share is dropped as late — it must not start a fresh,
  // never-completable group (which would double-count the loss on the next
  // eviction pass).
  joiner.Add(Share(9, {2}), 201, 1);
  EXPECT_EQ(emitted, 0);
  EXPECT_EQ(joiner.pending_groups(), 0u);
  EXPECT_EQ(joiner.stats().late_dropped, 1u);
}

TEST(MidJoinerTest, LastShareExactlyAtEvictionCutoffStillJoins) {
  // Eviction is strict (first_seen < now - timeout): the watermark landing
  // exactly on first_seen + timeout does not expire the group, so a sibling
  // arriving in the same instant still completes the join.
  int emitted = 0;
  MidJoiner joiner(2, 100,
                   [&](uint64_t, std::vector<uint8_t>, int64_t) { ++emitted; });
  joiner.Add(Share(4, {0x0F}), 50, 0);
  joiner.EvictStale(150);  // cutoff = 50: 50 < 50 is false -> keep waiting
  EXPECT_EQ(joiner.pending_groups(), 1u);
  EXPECT_EQ(joiner.stats().evicted_partial, 0u);
  joiner.Add(Share(4, {0xF0}), 150, 1);
  EXPECT_EQ(emitted, 1);
  // One more millisecond and it would have been evicted.
  joiner.Add(Share(6, {1}), 50, 0);
  joiner.EvictStale(151);
  EXPECT_EQ(joiner.pending_groups(), 0u);
  EXPECT_EQ(joiner.stats().evicted_partial, 1u);
}

TEST(MidJoinerTest, DuplicateShareAfterExpiryIsLateDropped) {
  int emitted = 0;
  MidJoiner joiner(2, 100,
                   [&](uint64_t, std::vector<uint8_t>, int64_t) { ++emitted; });
  joiner.Add(Share(8, {1}), 0, 0);
  joiner.EvictStale(200);
  EXPECT_EQ(joiner.stats().evicted_partial, 1u);
  // Even a redelivery of the share the group already had counts as late,
  // not as a same-slot duplicate — the group no longer exists.
  joiner.Add(Share(8, {1}), 205, 0);
  joiner.Add(Share(8, {2}), 206, 1);
  EXPECT_EQ(emitted, 0);
  EXPECT_EQ(joiner.pending_groups(), 0u);
  EXPECT_EQ(joiner.stats().late_dropped, 2u);
  EXPECT_EQ(joiner.stats().duplicates_dropped, 0u);
}

TEST(MidJoinerTest, RememberedMidSetsStayBoundedOverManyEpochs) {
  // Regression: the remembered completed/expired MIDs used to grow for the
  // life of the run — one entry per MID ever seen. EvictStale now prunes
  // both behind its cutoff, so across many epochs the remembered set stays
  // bounded by the MIDs seen within the last join timeout, while replay
  // and straggler defense still hold inside that horizon.
  int emitted = 0;
  MidJoiner joiner(2, 100,
                   [&](uint64_t, std::vector<uint8_t>, int64_t) { ++emitted; });
  size_t max_remembered = 0;
  uint64_t next_mid = 1;
  for (int64_t epoch = 0; epoch < 200; ++epoch) {
    const int64_t now = epoch * 100;
    for (int i = 0; i < 10; ++i) {
      const uint64_t mid = next_mid++;
      joiner.Add(Share(mid, {1}), now, 0);
      if (i % 2 == 0) {
        joiner.Add(Share(mid, {2}), now, 1);  // completes
      }  // else: partial, expires at the watermark
    }
    joiner.EvictStale(now + 100);
    max_remembered = std::max(max_remembered, joiner.remembered_mids());
  }
  // Strict cutoff: the final epoch's partials outlive its own watermark by
  // design; one more advance expires them.
  joiner.EvictStale(200 * 100 + 100);
  EXPECT_EQ(emitted, 200 * 5);
  EXPECT_EQ(joiner.stats().evicted_partial, 200u * 5u);
  EXPECT_EQ(joiner.pending_groups(), 0u);
  // Each epoch remembers at most its own 10 MIDs plus the previous epoch's
  // (stamps within one timeout of the watermark) — far below the 2000 MIDs
  // an unbounded set would hold.
  EXPECT_LE(max_remembered, 40u);
  EXPECT_LE(joiner.remembered_mids(), 40u);
}

TEST(MidJoinerTest, ReplayAfterPruneRestartsButReexpires) {
  // Beyond the remembered horizon, a replayed MID is indistinguishable from
  // a new one: it restarts a group that can never complete and is evicted
  // again at the next watermark — counted as evicted, never double-joined.
  int emitted = 0;
  MidJoiner joiner(2, 100,
                   [&](uint64_t, std::vector<uint8_t>, int64_t) { ++emitted; });
  joiner.Add(Share(7, {1}), 0, 0);
  joiner.Add(Share(7, {2}), 0, 1);
  EXPECT_EQ(emitted, 1);
  joiner.EvictStale(1000);  // prunes the completed-MID memory of 7
  EXPECT_EQ(joiner.remembered_mids(), 0u);
  joiner.Add(Share(7, {1}), 1001, 0);  // ancient replay
  EXPECT_EQ(joiner.pending_groups(), 1u);
  joiner.EvictStale(2000);
  EXPECT_EQ(emitted, 1);
  EXPECT_EQ(joiner.pending_groups(), 0u);
  EXPECT_EQ(joiner.stats().evicted_partial, 1u);
}

TEST(MidJoinerTest, EvictFnReportsMidAndFirstSeen) {
  std::vector<std::pair<uint64_t, int64_t>> evicted;
  MidJoiner joiner(2, 100,
                   [](uint64_t, std::vector<uint8_t>, int64_t) {});
  joiner.set_evict_fn([&](uint64_t mid, int64_t first_seen_ms) {
    evicted.emplace_back(mid, first_seen_ms);
  });
  joiner.Add(Share(11, {1}), 10, 0);
  joiner.Add(Share(12, {2}), 20, 1);
  joiner.EvictStale(500);
  ASSERT_EQ(evicted.size(), 2u);
  std::sort(evicted.begin(), evicted.end());
  EXPECT_EQ(evicted[0], (std::pair<uint64_t, int64_t>{11, 10}));
  EXPECT_EQ(evicted[1], (std::pair<uint64_t, int64_t>{12, 20}));
}

TEST(MidJoinerTest, RejectsBadConfig) {
  const auto noop = [](uint64_t, std::vector<uint8_t>, int64_t) {};
  EXPECT_THROW(MidJoiner(1, 1000, noop), std::invalid_argument);
  EXPECT_THROW(MidJoiner(2, 0, noop), std::invalid_argument);
}

TEST(MidJoinerTest, RejectsBadSource) {
  MidJoiner joiner(2, 1000, [](uint64_t, std::vector<uint8_t>, int64_t) {});
  EXPECT_THROW(joiner.Add(Share(1, {0}), 0, 2), std::out_of_range);
}

TEST(MidJoinerTest, SameStreamRedeliveryCannotSelfJoin) {
  // The same share delivered twice on one stream must not XOR with itself
  // into a zero "plaintext" — it fills one slot and the copy is dropped.
  int emitted = 0;
  std::vector<uint8_t> plaintext_out;
  MidJoiner joiner(2, 1000,
                   [&](uint64_t, std::vector<uint8_t> plaintext, int64_t) {
                     ++emitted;
                     plaintext_out = std::move(plaintext);
                   });
  joiner.Add(Share(3, {0xAA}), 0, 0);
  joiner.Add(Share(3, {0xAA}), 1, 0);  // redelivery on stream 0
  EXPECT_EQ(emitted, 0);
  EXPECT_EQ(joiner.stats().duplicates_dropped, 1u);
  joiner.Add(Share(3, {0x55}), 2, 1);  // the real sibling
  EXPECT_EQ(emitted, 1);
  EXPECT_EQ(plaintext_out, std::vector<uint8_t>{0xFF});
}

TEST(MidJoinerTest, ManyInterleavedGroups) {
  crypto::XorSplitter splitter(2, crypto::ChaCha20Rng::FromSeed(2, 0));
  std::vector<std::vector<crypto::MessageShare>> all;
  for (uint8_t i = 0; i < 100; ++i) {
    all.push_back(splitter.Split({i}));
  }
  size_t emitted = 0;
  MidJoiner joiner(2, 1000,
                   [&](uint64_t, std::vector<uint8_t> plaintext, int64_t) {
                     ++emitted;
                     ASSERT_EQ(plaintext.size(), 1u);
                   });
  // First shares of everyone, then second shares of everyone.
  for (const auto& shares : all) {
    joiner.Add(shares[0], 0, 0);
  }
  for (const auto& shares : all) {
    joiner.Add(shares[1], 1, 1);
  }
  EXPECT_EQ(emitted, 100u);
}

TEST(MidJoinerTest, LengthMismatchIsDroppedAndRemembered) {
  // A client that splits one answer into shares of different lengths cannot
  // abort the join: the group is counted as malformed, never emitted, and
  // its MID stays remembered so replays of it are dropped too.
  std::vector<uint64_t> emitted;
  MidJoiner joiner(2, 100,
                   [&](uint64_t mid, std::vector<uint8_t>, int64_t) {
                     emitted.push_back(mid);
                   });
  joiner.Add(Share(1, std::vector<uint8_t>(14, 0xAB)), 10, 0);
  joiner.Add(Share(1, std::vector<uint8_t>(13, 0xCD)), 11, 1);
  EXPECT_TRUE(emitted.empty());
  EXPECT_EQ(joiner.stats().malformed_dropped, 1u);
  EXPECT_EQ(joiner.stats().joined, 0u);
  EXPECT_EQ(joiner.pending_groups(), 0u);
  EXPECT_EQ(joiner.remembered_mids(), 1u);
  // A replay of the broken MID is a duplicate; an honest neighbour joins.
  joiner.Add(Share(1, std::vector<uint8_t>(14, 0xAB)), 12, 0);
  EXPECT_EQ(joiner.stats().duplicates_dropped, 1u);
  joiner.Add(Share(2, {0x0F}), 12, 0);
  joiner.Add(Share(2, {0xF0}), 13, 1);
  EXPECT_EQ(emitted, std::vector<uint64_t>{2});
  EXPECT_EQ(joiner.stats().malformed_dropped, 1u);
}

// Test-local model of the join's reference semantics, kept on one node map
// per state exactly as join.h specifies them: replays of completed MIDs are
// duplicates, stragglers of expired groups are late, eviction is strict
// (first_seen < now - timeout), and remembered MIDs are pruned behind the
// same cutoff — a completed MID one timeout after its completing share, an
// expired one one timeout after its eviction.
class ReferenceJoiner {
 public:
  struct Emitted {
    uint64_t mid = 0;
    std::vector<uint8_t> plaintext;
    int64_t first_seen = 0;
    bool operator==(const Emitted&) const = default;
  };

  ReferenceJoiner(size_t sources, int64_t timeout)
      : sources_(sources), timeout_(timeout) {}

  void Add(uint64_t mid, std::span<const uint8_t> payload, int64_t ts,
           size_t source) {
    if (completed_.contains(mid)) {
      ++stats_.duplicates_dropped;
      return;
    }
    if (expired_.contains(mid)) {
      ++stats_.late_dropped;
      return;
    }
    Group& group = pending_[mid];
    if (group.slots.empty()) {
      group.slots.resize(sources_);
      group.first_seen = ts;
    }
    if (group.slots[source].has_value()) {
      ++stats_.duplicates_dropped;
      return;
    }
    group.slots[source].emplace(payload.begin(), payload.end());
    for (const auto& slot : group.slots) {
      if (!slot.has_value()) {
        return;
      }
    }
    std::vector<uint8_t> plaintext = *group.slots[0];
    bool same_length = true;
    for (size_t i = 1; i < sources_; ++i) {
      const std::vector<uint8_t>& other = *group.slots[i];
      if (other.size() != plaintext.size()) {
        same_length = false;
        break;
      }
      for (size_t b = 0; b < other.size(); ++b) {
        plaintext[b] ^= other[b];
      }
    }
    const int64_t first_seen = group.first_seen;
    pending_.erase(mid);
    completed_[mid] = ts;
    if (!same_length) {
      ++stats_.malformed_dropped;
      return;
    }
    ++stats_.joined;
    emitted.push_back(Emitted{mid, std::move(plaintext), first_seen});
  }

  // Returns the evicted (MID, first_seen) pairs, sorted.
  std::vector<std::pair<uint64_t, int64_t>> EvictStale(int64_t now) {
    // Exact arithmetic: now - timeout may lie below INT64_MIN.
    const __int128 cutoff = static_cast<__int128>(now) - timeout_;
    std::vector<std::pair<uint64_t, int64_t>> evicted;
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.first_seen < cutoff) {
        ++stats_.evicted_partial;
        evicted.emplace_back(it->first, it->second.first_seen);
        expired_[it->first] = now;
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
    std::erase_if(completed_,
                  [&](const auto& entry) { return entry.second < cutoff; });
    std::erase_if(expired_,
                  [&](const auto& entry) { return entry.second < cutoff; });
    std::sort(evicted.begin(), evicted.end());
    return evicted;
  }

  const JoinStats& stats() const { return stats_; }
  size_t pending_groups() const { return pending_.size(); }
  size_t remembered_mids() const {
    return completed_.size() + expired_.size();
  }

  std::vector<Emitted> emitted;

 private:
  struct Group {
    std::vector<std::optional<std::vector<uint8_t>>> slots;
    int64_t first_seen = 0;
  };
  size_t sources_;
  int64_t timeout_;
  std::unordered_map<uint64_t, Group> pending_;
  std::unordered_map<uint64_t, int64_t> completed_;
  std::unordered_map<uint64_t, int64_t> expired_;
  JoinStats stats_;
};

bool SameStats(const JoinStats& a, const JoinStats& b) {
  return a.joined == b.joined && a.duplicates_dropped == b.duplicates_dropped &&
         a.evicted_partial == b.evicted_partial &&
         a.late_dropped == b.late_dropped &&
         a.malformed_dropped == b.malformed_dropped;
}

// `count` MIDs whose slot hashes agree in their low `bits` bits with that
// of `anchor`, so they share one home slot in every table of up to 2^bits
// entries.
std::vector<uint64_t> HomeSlotCollisions(uint64_t anchor, int bits,
                                         size_t count) {
  const uint64_t mask = (uint64_t{1} << bits) - 1;
  const uint64_t home = MidJoiner::SlotHash(anchor) & mask;
  std::vector<uint64_t> mids;
  for (uint64_t candidate = anchor + 1; mids.size() < count; ++candidate) {
    if ((MidJoiner::SlotHash(candidate) & mask) == home) {
      mids.push_back(candidate);
    }
  }
  return mids;
}

TEST(MidJoinerDifferentialTest, MatchesReferenceOnSeededShareSequences) {
  constexpr int64_t kInt64Min = std::numeric_limits<int64_t>::min();
  constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();
  JoinStats totals;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const auto uniform = [&rng](uint64_t n) { return rng() % n; };
    const size_t sources = 2 + uniform(2);
    const int64_t timeout = 1 + static_cast<int64_t>(uniform(40));

    // MIDs: 0 and UINT64_MAX, a cluster sharing one home slot (with its
    // anchor) and a few recurring ones, besides fresh random MIDs that grow
    // the table through several doublings.
    std::vector<uint64_t> hot = {0, std::numeric_limits<uint64_t>::max()};
    const uint64_t anchor = rng();
    hot.push_back(anchor);
    for (const uint64_t mid : HomeSlotCollisions(anchor, 12, 24)) {
      hot.push_back(mid);
    }
    for (int i = 0; i < 8; ++i) {
      hot.push_back(rng());
    }
    std::vector<uint64_t> seen = hot;

    ReferenceJoiner reference(sources, timeout);
    std::vector<ReferenceJoiner::Emitted> emitted;
    MidJoiner joiner(sources, timeout,
                     [&](uint64_t mid, JoinedPlaintext plaintext, int64_t ts) {
                       emitted.push_back(
                           {mid, std::vector<uint8_t>(plaintext), ts});
                     });
    std::vector<std::pair<uint64_t, int64_t>> evicted;
    joiner.set_evict_fn([&](uint64_t mid, int64_t first_seen) {
      evicted.emplace_back(mid, first_seen);
    });
    // Payloads handed to the zero-copy Add must outlive their groups.
    std::deque<std::vector<uint8_t>> payloads;
    struct Planned {
      uint64_t mid;
      size_t source;
      size_t len;
    };
    std::vector<Planned> planned;  // shares of answers still in flight
    std::vector<int64_t> first_seen_samples;
    int64_t clock = static_cast<int64_t>(uniform(1000));

    for (int step = 0; step < 4000; ++step) {
      const uint64_t op = uniform(100);
      if (op < 20) {
        // A client answers: one share per source, in random order, each
        // lost now and then, one of them a byte long now and then.
        const uint64_t mid = uniform(5) == 0 ? hot[uniform(hot.size())] : rng();
        seen.push_back(mid);
        const size_t odd = uniform(20) == 0 ? uniform(sources) : sources;
        for (size_t source = 0; source < sources; ++source) {
          if (uniform(12) != 0) {
            planned.push_back({mid, source, source == odd ? 13u : 12u});
          }
        }
        std::shuffle(planned.end() - static_cast<long>(std::min<size_t>(
                                         planned.size(), sources)),
                     planned.end(), rng);
        continue;
      }
      if (op < 88) {
        Planned share;
        if (!planned.empty() && uniform(5) != 0) {
          // Interleave: any of the oldest few in-flight shares goes next.
          const size_t pick = uniform(std::min<size_t>(planned.size(), 6));
          share = planned[pick];
          planned.erase(planned.begin() + static_cast<long>(pick));
        } else {
          // Redelivery, replay, or straggler of an earlier MID.
          share = {seen[uniform(seen.size())], uniform(sources), 12};
        }
        int64_t ts = clock + static_cast<int64_t>(uniform(timeout + 1));
        if (uniform(300) == 0) {
          ts = uniform(2) == 0 ? kInt64Min : kInt64Max;
        }
        std::vector<uint8_t>& payload = payloads.emplace_back(share.len);
        for (uint8_t& byte : payload) {
          byte = static_cast<uint8_t>(rng());
        }
        reference.Add(share.mid, payload, ts, share.source);
        if (uniform(2) == 0) {
          joiner.Add(share.mid, payload, ts, share.source);
        } else {
          joiner.Add(crypto::MessageShare{share.mid, payload}, ts,
                     share.source);
        }
        if (first_seen_samples.size() < 64) {
          first_seen_samples.push_back(ts);
        } else {
          first_seen_samples[uniform(64)] = ts;
        }
        clock += static_cast<int64_t>(uniform(2));
      } else {
        int64_t now = clock + static_cast<int64_t>(uniform(2 * timeout));
        const uint64_t kind = uniform(40);
        if (kind < 8 && !first_seen_samples.empty()) {
          // Exactly at the cutoff of a recent share: its group survives.
          const int64_t first_seen =
              first_seen_samples[uniform(first_seen_samples.size())];
          if (first_seen <= kInt64Max - timeout) {
            now = first_seen + timeout;
          }
        } else if (kind < 16) {
          now = clock - static_cast<int64_t>(uniform(4 * timeout));  // back
        } else if (kind == 16) {
          now = kInt64Min;
        } else if (kind == 17 && uniform(8) == 0) {
          now = kInt64Max;
        }
        evicted.clear();
        joiner.EvictStale(now);
        std::sort(evicted.begin(), evicted.end());
        ASSERT_EQ(evicted, reference.EvictStale(now)) << "step " << step;
      }
      ASSERT_EQ(emitted, reference.emitted) << "step " << step;
      ASSERT_TRUE(SameStats(joiner.stats(), reference.stats()))
          << "step " << step;
      ASSERT_EQ(joiner.pending_groups(), reference.pending_groups())
          << "step " << step;
      ASSERT_EQ(joiner.remembered_mids(), reference.remembered_mids())
          << "step " << step;
    }
    totals.joined += reference.stats().joined;
    totals.duplicates_dropped += reference.stats().duplicates_dropped;
    totals.evicted_partial += reference.stats().evicted_partial;
    totals.late_dropped += reference.stats().late_dropped;
    totals.malformed_dropped += reference.stats().malformed_dropped;
  }
  // The sequences reach every outcome the join distinguishes.
  EXPECT_GT(totals.joined, 1000u);
  EXPECT_GT(totals.duplicates_dropped, 100u);
  EXPECT_GT(totals.evicted_partial, 100u);
  EXPECT_GT(totals.late_dropped, 100u);
  EXPECT_GT(totals.malformed_dropped, 10u);
}

}  // namespace
}  // namespace privapprox::engine
