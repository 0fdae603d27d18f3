// Tests for the dataflow engine: pane-sliced sliding windows with
// watermarks, late data and loss counts (against a model that folds every
// item into every window holding it), and the MID share join (including
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

// ------------------------------------------------------------- pane windows

// Additive accumulator for the window tests; counts every Add it takes.
struct SumAcc {
  inline static size_t adds = 0;
  int64_t sum = 0;
  size_t n = 0;
  void Add(int v) {
    sum += v;
    ++n;
    ++adds;
  }
  void Merge(const SumAcc& other) {
    sum += other.sum;
    n += other.n;
  }
};

struct Fired {
  Window window;
  int64_t sum = 0;
  size_t n = 0;
  uint64_t lost = 0;
  bool operator==(const Fired&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Fired& f) {
  return os << "[" << f.window.start_ms << ", " << f.window.end_ms
            << ") sum=" << f.sum << " n=" << f.n << " lost=" << f.lost;
}

// The pane buffer under test, with its feeders: each fold goes to one of
// `feeders` pane maps, which Drain adds into the buffer in feeder order
// (as the aggregator's shards are added after each feed).
class PaneHarness {
 public:
  PaneHarness(int64_t length_ms, int64_t slide_ms, size_t feeders = 1)
      : windows_(length_ms, slide_ms), feeders_(feeders) {}

  bool Fold(int64_t ts, int v, size_t feeder = 0) {
    return windows_.Fold(feeders_[feeder], ts, v);
  }
  void NoteLoss(int64_t ts) { windows_.NoteLoss(ts); }
  void Drain() {
    for (auto& feeder : feeders_) {
      windows_.Absorb(feeder);
    }
  }
  void Advance(int64_t watermark_ms) {
    Drain();
    windows_.Advance(watermark_ms,
                     [&](const Window& w, const SumAcc& acc, uint64_t lost) {
                       fired_.push_back(Fired{w, acc.sum, acc.n, lost});
                     });
  }
  void Flush() { Advance(INT64_MAX); }

  const PaneWindows<SumAcc>& windows() const { return windows_; }
  const std::vector<Fired>& fired() const { return fired_; }

 private:
  PaneWindows<SumAcc> windows_;
  std::vector<PaneWindows<SumAcc>::Panes> feeders_;
  std::vector<Fired> fired_;
};

// The model: every window [k*slide, k*slide + length) holding an item gets
// the item, and a window counts every loss noted in its span before it
// fires. An item (or loss) with a window that does not fit in int64 is
// refused.
class Reference {
 public:
  Reference(int64_t length_ms, int64_t slide_ms)
      : length_ms_(length_ms), slide_ms_(slide_ms) {}

  // Every window holding `ts`, or nullopt when one does not fit in int64.
  std::optional<std::vector<Window>> Holding(int64_t ts) const {
    using Wide = __int128;
    Wide start = Wide{ts} / slide_ms_ * slide_ms_;
    if (start > ts) {
      start -= slide_ms_;
    }
    std::vector<Window> out;
    for (; start > Wide{ts} - length_ms_; start -= slide_ms_) {
      if (start < INT64_MIN || start + length_ms_ > INT64_MAX) {
        return std::nullopt;
      }
      out.push_back(Window{static_cast<int64_t>(start),
                           static_cast<int64_t>(start + length_ms_)});
    }
    std::reverse(out.begin(), out.end());
    return out;
  }

  bool Fold(int64_t ts, int v) {
    const auto holding = Holding(ts);
    if (!holding) {
      return false;
    }
    if (ts >= watermark_ms_) {
      for (const Window& w : *holding) {
        SumAcc& acc = pending_[w];
        acc.sum += v;
        ++acc.n;
        ++folds_;
      }
    }
    return true;
  }
  void NoteLoss(int64_t ts) {
    if (Holding(ts)) {
      losses_.push_back(ts);
    }
  }
  void Advance(int64_t watermark_ms) {
    if (watermark_ms <= watermark_ms_) {
      return;
    }
    watermark_ms_ = watermark_ms;
    while (!pending_.empty() &&
           pending_.begin()->first.end_ms <= watermark_ms) {
      const auto& [w, acc] = *pending_.begin();
      const auto lost = std::count_if(
          losses_.begin(), losses_.end(),
          [&](int64_t ts) { return ts >= w.start_ms && ts < w.end_ms; });
      fired_.push_back(Fired{w, acc.sum, acc.n, static_cast<uint64_t>(lost)});
      pending_.erase(pending_.begin());
    }
  }
  void Flush() { Advance(INT64_MAX); }

  const std::vector<Fired>& fired() const { return fired_; }
  size_t folds() const { return folds_; }

 private:
  int64_t length_ms_;
  int64_t slide_ms_;
  std::map<Window, SumAcc> pending_;
  std::vector<int64_t> losses_;
  std::vector<Fired> fired_;
  int64_t watermark_ms_ = INT64_MIN;
  size_t folds_ = 0;
};

// Folds one item at `ts`, flushes, and returns the windows that fired,
// after checking them against the model.
std::vector<Window> WindowsFiredFor(int64_t length_ms, int64_t slide_ms,
                                    int64_t ts) {
  PaneHarness panes(length_ms, slide_ms);
  Reference reference(length_ms, slide_ms);
  EXPECT_TRUE(panes.Fold(ts, 1));
  EXPECT_TRUE(reference.Fold(ts, 1));
  panes.Flush();
  reference.Flush();
  EXPECT_EQ(panes.fired(), reference.fired());
  std::vector<Window> windows;
  for (const Fired& f : panes.fired()) {
    windows.push_back(f.window);
  }
  return windows;
}

TEST(PaneWindowsTest, TumblingWindow) {
  EXPECT_EQ(WindowsFiredFor(10, 10, 25), (std::vector<Window>{{20, 30}}));
}

TEST(PaneWindowsTest, OverlappingWindows) {
  // Window 30 ms sliding by 10 ms: each timestamp is in 3 windows.
  EXPECT_EQ(WindowsFiredFor(30, 10, 35),
            (std::vector<Window>{{10, 40}, {20, 50}, {30, 60}}));
}

TEST(PaneWindowsTest, BoundaryTimestampBelongsToNewWindow) {
  EXPECT_EQ(WindowsFiredFor(20, 10, 20),
            (std::vector<Window>{{10, 30}, {20, 40}}));
}

TEST(PaneWindowsTest, NegativeTimestamps) {
  EXPECT_EQ(WindowsFiredFor(10, 10, -5), (std::vector<Window>{{-10, 0}}));
}

TEST(PaneWindowsTest, RejectsBadPeriods) {
  EXPECT_THROW(PaneWindows<SumAcc>(0, 1), std::invalid_argument);
  EXPECT_THROW(PaneWindows<SumAcc>(10, 0), std::invalid_argument);
  EXPECT_THROW(PaneWindows<SumAcc>(10, 20), std::invalid_argument);
}

TEST(PaneWindowsTest, TimestampExactlyOnWindowStart) {
  // Tumbling: a timestamp on a boundary belongs to the window starting
  // there, never the one ending there ([start, end) semantics).
  EXPECT_EQ(WindowsFiredFor(10, 10, 20), (std::vector<Window>{{20, 30}}));
}

TEST(PaneWindowsTest, TimestampJustBeforeWindowEnd) {
  EXPECT_EQ(WindowsFiredFor(10, 10, 19), (std::vector<Window>{{10, 20}}));
}

TEST(PaneWindowsTest, SlidingBoundaryExcludesEndingWindow) {
  // Length 30, slide 10: ts 30 is in [10,40), [20,50), [30,60) — but not
  // [0,30), which ends exactly at 30.
  EXPECT_EQ(WindowsFiredFor(30, 10, 30),
            (std::vector<Window>{{10, 40}, {20, 50}, {30, 60}}));
}

TEST(PaneWindowsTest, NegativeTimestampOnBoundary) {
  EXPECT_EQ(WindowsFiredFor(10, 10, -10), (std::vector<Window>{{-10, 0}}));
}

TEST(PaneWindowsTest, NegativeTimestampsSliding) {
  EXPECT_EQ(WindowsFiredFor(20, 10, -15),
            (std::vector<Window>{{-30, -10}, {-20, 0}}));
}

TEST(PaneWindowsTest, EveryWindowHoldingAnItemFires) {
  // Tumbling, sliding, and a slide that does not divide the length (panes
  // shorter than the slide): one item fires exactly the windows holding it.
  for (const auto& [length, slide] :
       {std::pair<int64_t, int64_t>{10, 10}, {30, 10}, {20, 10}, {7, 3}}) {
    for (int64_t ts = -45; ts <= 45; ++ts) {
      SCOPED_TRACE(testing::Message() << "length=" << length
                                      << " slide=" << slide << " ts=" << ts);
      const std::vector<Window> windows = WindowsFiredFor(length, slide, ts);
      EXPECT_EQ(windows.size(),
                static_cast<size_t>(length / slide +
                                    ((ts % slide + slide) % slide <
                                             length % slide
                                         ? 1
                                         : 0)));
      for (const Window& w : windows) {
        EXPECT_LE(w.start_ms, ts);
        EXPECT_GT(w.end_ms, ts);
      }
    }
  }
}

TEST(PaneWindowsTest, FoldsAndFiresOnWatermark) {
  PaneHarness panes(10, 10);
  panes.Fold(1, 100);
  panes.Fold(5, 10);
  panes.Fold(12, 7);
  panes.Drain();
  EXPECT_EQ(panes.windows().pending_panes(), 2u);

  panes.Advance(10);
  ASSERT_EQ(panes.fired().size(), 1u);
  EXPECT_EQ(panes.fired()[0], (Fired{{0, 10}, 110, 2, 0}));
  EXPECT_EQ(panes.windows().pending_panes(), 1u);

  // Watermark never moves backwards; nothing re-fires.
  panes.Advance(5);
  ASSERT_EQ(panes.fired().size(), 1u);
  EXPECT_EQ(panes.windows().watermark_ms(), 10);

  // The next advance fires the next window, and only it.
  panes.Advance(20);
  ASSERT_EQ(panes.fired().size(), 2u);
  EXPECT_EQ(panes.fired()[1], (Fired{{10, 20}, 7, 1, 0}));
  EXPECT_EQ(panes.windows().pending_panes(), 0u);
}

TEST(PaneWindowsTest, SlidingWindowsEachSumTheirPanes) {
  PaneHarness panes(20, 10);
  panes.Fold(15, 3);  // in [0,20) and [10,30)
  panes.Advance(40);
  EXPECT_EQ(panes.fired(), (std::vector<Fired>{{{0, 20}, 3, 1, 0},
                                               {{10, 30}, 3, 1, 0}}));

  // A flush fires every window left, here three overlapping ones over one
  // pane, in ascending window order.
  PaneHarness wide(30, 10);
  wide.Fold(25, 4);  // [0,30), [10,40), [20,50)
  wide.Drain();
  EXPECT_EQ(wide.windows().pending_panes(), 1u);
  wide.Flush();
  ASSERT_EQ(wide.fired().size(), 3u);
  for (size_t w = 0; w < wide.fired().size(); ++w) {
    EXPECT_EQ(wide.fired()[w].window.start_ms, static_cast<int64_t>(10 * w));
    EXPECT_EQ(wide.fired()[w].sum, 4);
  }
  EXPECT_EQ(wide.windows().pending_panes(), 0u);
}

TEST(PaneWindowsTest, LateFoldsDropAndFlushPinsWatermark) {
  PaneHarness panes(10, 10);
  panes.Advance(50);
  EXPECT_TRUE(panes.fired().empty());
  EXPECT_TRUE(panes.Fold(30, 1));  // behind the watermark: late, not refused
  panes.Drain();
  EXPECT_EQ(panes.windows().pending_panes(), 0u);  // a late fold opens none
  panes.Fold(60, 2);
  panes.Flush();
  ASSERT_EQ(panes.fired().size(), 1u);
  EXPECT_EQ(panes.fired()[0].sum, 2);
  // Stream over: later folds are late, and nothing fires again.
  panes.Fold(1000, 3);
  panes.Drain();
  EXPECT_EQ(panes.windows().pending_panes(), 0u);
  EXPECT_EQ(panes.windows().watermark_ms(), INT64_MAX);
  panes.Advance(INT64_MAX);
  EXPECT_EQ(panes.fired().size(), 1u);
}

TEST(PaneWindowsTest, EachItemIsAddedOnce) {
  // 4 windows hold every item (w/delta = 4): the model folds each item 4
  // times, the pane buffer adds it to one pane.
  PaneHarness panes(40, 10, /*feeders=*/2);
  Reference reference(40, 10);
  SumAcc::adds = 0;
  for (int i = 0; i < 100; ++i) {
    panes.Fold(i * 7, i, static_cast<size_t>(i % 2));
    reference.Fold(i * 7, i);
  }
  EXPECT_EQ(SumAcc::adds, 100u);
  EXPECT_EQ(reference.folds(), 400u);
  panes.Flush();
  reference.Flush();
  EXPECT_EQ(panes.fired(), reference.fired());
  EXPECT_EQ(SumAcc::adds, 100u);  // firing merges panes, it adds nothing
}

TEST(PaneWindowsTest, RefusesItemsWhoseWindowsLeaveInt64) {
  // Tumbling and sliding: the windows of an item stamped near either end of
  // int64 would wrap; the item is refused and opens no window.
  for (const auto& [length, slide] :
       {std::pair<int64_t, int64_t>{10000, 10000}, {40000, 10000}}) {
    PaneHarness panes(length, slide);
    EXPECT_TRUE(panes.Fold(5000, 1));
    EXPECT_FALSE(panes.Fold(INT64_MAX - 5, 1));
    EXPECT_FALSE(panes.Fold(INT64_MIN + 5, 1));
    EXPECT_FALSE(panes.Fold(INT64_MAX, 1));
    EXPECT_FALSE(panes.Fold(INT64_MIN, 1));
    panes.NoteLoss(INT64_MAX - 5);
    panes.Flush();
    ASSERT_EQ(panes.fired().size(), static_cast<size_t>(length / slide));
    for (const Fired& f : panes.fired()) {
      EXPECT_EQ(f.sum, 1);
      EXPECT_EQ(f.lost, 0u);
      EXPECT_LE(f.window.start_ms, 5000);
      EXPECT_GT(f.window.end_ms, 5000);
    }
  }
  // The last windows that fit still fire, at both ends.
  PaneHarness tumbling(10, 10);
  const int64_t top = INT64_MAX - INT64_MAX % 10 - 10;  // [top, top + 10)
  EXPECT_TRUE(tumbling.Fold(top + 9, 1));
  EXPECT_FALSE(tumbling.Fold(top + 10, 1));
  const int64_t bottom = INT64_MIN - INT64_MIN % 10;  // [bottom, bottom + 10)
  EXPECT_TRUE(tumbling.Fold(bottom, 1));
  EXPECT_FALSE(tumbling.Fold(bottom - 1, 1));
  tumbling.Flush();
  EXPECT_EQ(tumbling.fired(),
            (std::vector<Fired>{{{bottom, bottom + 10}, 1, 1, 0},
                                {{top, top + 10}, 1, 1, 0}}));
}

TEST(PaneWindowsTest, MatchesFoldingIntoEveryWindow) {
  // Seeded differential run against the model: random (length, slide),
  // slides that do not divide the length, negative and int64-boundary
  // timestamps, late folds, watermarks that do not advance, losses, items
  // spread over three feeders, and a final flush. The fired (window, sum,
  // count, losses) sequences must match in order.
  std::mt19937_64 rng(0x9a4e5);
  const auto pick = [&](int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
  };
  const auto timestamp = [&]() -> int64_t {
    switch (pick(0, 9)) {
      case 0:
        return INT64_MIN + pick(0, 60);
      case 1:
        return INT64_MAX - pick(0, 60);
      default:
        return pick(-80, 120);
    }
  };
  size_t refused = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const int64_t slide = pick(1, 12);
    const int64_t slides = pick(1, 4);
    const int64_t extra = pick(0, 1) == 0 ? 0 : pick(0, 11);
    const int64_t length = slide * slides + extra;
    SCOPED_TRACE(testing::Message() << "trial " << trial << " length="
                                    << length << " slide=" << slide);
    PaneHarness panes(length, slide, /*feeders=*/3);
    Reference reference(length, slide);
    int64_t clock = -100;
    for (int step = 0; step < 80; ++step) {
      const int64_t op = pick(0, 19);
      if (op < 11) {
        const int64_t ts = timestamp();
        const int v = static_cast<int>(pick(1, 1000));
        const bool folded = panes.Fold(ts, v, static_cast<size_t>(pick(0, 2)));
        ASSERT_EQ(folded, reference.Fold(ts, v)) << "ts=" << ts;
        refused += folded ? 0 : 1;
      } else if (op < 14) {
        const int64_t ts = timestamp();
        panes.NoteLoss(ts);
        reference.NoteLoss(ts);
      } else if (op < 15) {
        panes.Drain();
      } else {
        // Mostly forward, sometimes backward (a no-op), rarely near
        // INT64_MIN.
        clock += pick(-10, 25);
        const int64_t watermark = op == 19 ? INT64_MIN + pick(0, 60) : clock;
        panes.Advance(watermark);
        reference.Advance(watermark);
      }
    }
    panes.Flush();
    reference.Flush();
    ASSERT_EQ(panes.fired(), reference.fired());
    EXPECT_EQ(panes.windows().pending_panes(), 0u);
  }
  EXPECT_GT(refused, 0u);
}

// --------------------------------------------------------------------- join


using Bytes = std::vector<uint8_t>;

TEST(MidJoinerTest, JoinsWhenAllSharesArrive) {
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> emitted;
  MidJoiner joiner(2, 1000,
                   [&](uint64_t mid, std::vector<uint8_t> plaintext, int64_t) {
                     emitted.emplace_back(mid, std::move(plaintext));
                   });
  joiner.Add(7, Bytes{0xF0}, 10, /*source=*/0);
  EXPECT_TRUE(emitted.empty());
  joiner.Add(7, Bytes{0x0F}, 12, /*source=*/1);
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
  joiner.Add(1, Bytes{0}, 100, 0);
  joiner.Add(1, Bytes{0}, 250, 1);
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
  joiner.Add(shares[2].message_id, shares[2].payload, 1, 2);
  joiner.Add(shares[0].message_id, shares[0].payload, 2, 0);
  joiner.Add(shares[1].message_id, shares[1].payload, 3, 1);
  EXPECT_EQ(recovered, plaintext);
}

TEST(MidJoinerTest, ReplayedMidIsDropped) {
  int emitted = 0;
  MidJoiner joiner(2, 1000,
                   [&](uint64_t, std::vector<uint8_t>, int64_t) { ++emitted; });
  joiner.Add(5, Bytes{1}, 0, 0);
  joiner.Add(5, Bytes{2}, 0, 1);
  EXPECT_EQ(emitted, 1);
  // A malicious client replays the same MID to distort the count (§3.2.4).
  joiner.Add(5, Bytes{1}, 1, 0);
  joiner.Add(5, Bytes{2}, 1, 1);
  EXPECT_EQ(emitted, 1);
  EXPECT_EQ(joiner.stats().duplicates_dropped, 2u);
}

TEST(MidJoinerTest, EvictsStalePartialGroups) {
  int emitted = 0;
  MidJoiner joiner(2, 100,
                   [&](uint64_t, std::vector<uint8_t>, int64_t) { ++emitted; });
  joiner.Add(9, Bytes{1}, 0, 0);  // second share never arrives
  EXPECT_EQ(joiner.pending_groups(), 1u);
  joiner.EvictStale(200);
  EXPECT_EQ(joiner.pending_groups(), 0u);
  EXPECT_EQ(joiner.stats().evicted_partial, 1u);
  // The straggler share is dropped as late — it must not start a fresh,
  // never-completable group (which would double-count the loss on the next
  // eviction pass).
  joiner.Add(9, Bytes{2}, 201, 1);
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
  joiner.Add(4, Bytes{0x0F}, 50, 0);
  joiner.EvictStale(150);  // cutoff = 50: 50 < 50 is false -> keep waiting
  EXPECT_EQ(joiner.pending_groups(), 1u);
  EXPECT_EQ(joiner.stats().evicted_partial, 0u);
  joiner.Add(4, Bytes{0xF0}, 150, 1);
  EXPECT_EQ(emitted, 1);
  // One more millisecond and it would have been evicted.
  joiner.Add(6, Bytes{1}, 50, 0);
  joiner.EvictStale(151);
  EXPECT_EQ(joiner.pending_groups(), 0u);
  EXPECT_EQ(joiner.stats().evicted_partial, 1u);
}

TEST(MidJoinerTest, DuplicateShareAfterExpiryIsLateDropped) {
  int emitted = 0;
  MidJoiner joiner(2, 100,
                   [&](uint64_t, std::vector<uint8_t>, int64_t) { ++emitted; });
  joiner.Add(8, Bytes{1}, 0, 0);
  joiner.EvictStale(200);
  EXPECT_EQ(joiner.stats().evicted_partial, 1u);
  // Even a redelivery of the share the group already had counts as late,
  // not as a same-slot duplicate — the group no longer exists.
  joiner.Add(8, Bytes{1}, 205, 0);
  joiner.Add(8, Bytes{2}, 206, 1);
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
      joiner.Add(mid, Bytes{1}, now, 0);
      if (i % 2 == 0) {
        joiner.Add(mid, Bytes{2}, now, 1);  // completes
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
  joiner.Add(7, Bytes{1}, 0, 0);
  joiner.Add(7, Bytes{2}, 0, 1);
  EXPECT_EQ(emitted, 1);
  joiner.EvictStale(1000);  // prunes the completed-MID memory of 7
  EXPECT_EQ(joiner.remembered_mids(), 0u);
  joiner.Add(7, Bytes{1}, 1001, 0);  // ancient replay
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
  joiner.Add(11, Bytes{1}, 10, 0);
  joiner.Add(12, Bytes{2}, 20, 1);
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
  EXPECT_THROW(joiner.Add(1, Bytes{0}, 0, 2), std::out_of_range);
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
  joiner.Add(3, Bytes{0xAA}, 0, 0);
  joiner.Add(3, Bytes{0xAA}, 1, 0);  // redelivery on stream 0
  EXPECT_EQ(emitted, 0);
  EXPECT_EQ(joiner.stats().duplicates_dropped, 1u);
  joiner.Add(3, Bytes{0x55}, 2, 1);  // the real sibling
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
    joiner.Add(shares[0].message_id, shares[0].payload, 0, 0);
  }
  for (const auto& shares : all) {
    joiner.Add(shares[1].message_id, shares[1].payload, 1, 1);
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
  joiner.Add(1, std::vector<uint8_t>(14, 0xAB), 10, 0);
  joiner.Add(1, std::vector<uint8_t>(13, 0xCD), 11, 1);
  EXPECT_TRUE(emitted.empty());
  EXPECT_EQ(joiner.stats().malformed_dropped, 1u);
  EXPECT_EQ(joiner.stats().joined, 0u);
  EXPECT_EQ(joiner.pending_groups(), 0u);
  EXPECT_EQ(joiner.remembered_mids(), 1u);
  // A replay of the broken MID is a duplicate; an honest neighbour joins.
  joiner.Add(1, std::vector<uint8_t>(14, 0xAB), 12, 0);
  EXPECT_EQ(joiner.stats().duplicates_dropped, 1u);
  joiner.Add(2, Bytes{0x0F}, 12, 0);
  joiner.Add(2, Bytes{0xF0}, 13, 1);
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
        joiner.Add(share.mid, payload, ts, share.source);
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
