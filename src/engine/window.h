// Sliding event-time windows over panes (paper §2.2, §3.2.4).
//
// Queries execute as sliding-window computations: window length w, sliding
// interval delta (Eq 1); window k is [k*delta, k*delta + w). PaneWindows
// cuts event time into panes P = gcd(w, delta) long (Li et al., "No pane,
// no gain", SIGMOD Record 2005): an item is added once, to the pane holding
// its timestamp, and a window is the sum of the w/P panes it covers — the
// paper's aggregator "adapts the computation window to the current start
// time t by removing all old data items ... then adds the newly incoming
// data items", a pane at a time.

#ifndef PRIVAPPROX_ENGINE_WINDOW_H_
#define PRIVAPPROX_ENGINE_WINDOW_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <numeric>
#include <optional>
#include <stdexcept>

namespace privapprox::engine {

struct Window {
  int64_t start_ms = 0;
  int64_t end_ms = 0;
  bool operator==(const Window&) const = default;
  auto operator<=>(const Window&) const = default;
};

// One query's panes, per-pane loss counts and watermark, for an additive
// `Acc` (Add(item), Merge(const Acc&)). Feeders, such as the aggregator's
// join shards running in parallel, fold items into pane maps of their own
// (Fold reads only the watermark); a coordinator adds those maps into the
// buffer in a fixed order (Absorb) and fires windows as the watermark
// advances (Advance). An item behind the watermark is late and dropped, the
// watermark never moves backwards, and Advance(INT64_MAX) ends the stream:
// it fires every window left, and every later item is late.
template <typename Acc>
class PaneWindows {
 public:
  using Panes = std::map<int64_t, Acc>;  // pane index -> accumulator

  // length >= slide > 0.
  PaneWindows(int64_t length_ms, int64_t slide_ms)
      : length_ms_(length_ms), slide_ms_(slide_ms) {
    if (slide_ms <= 0 || length_ms <= 0) {
      throw std::invalid_argument("PaneWindows: periods must be > 0");
    }
    if (slide_ms > length_ms) {
      throw std::invalid_argument("PaneWindows: slide must not exceed length");
    }
    pane_ms_ = std::gcd(length_ms, slide_ms);
    // The panes whose windows all fit in int64: window k fits when
    // k >= ceil(INT64_MIN / delta) and k <= floor((INT64_MAX - w) / delta).
    const Wide k_min = -FloorDiv<Wide>(-Wide{INT64_MIN}, slide_ms);
    const Wide k_max = FloorDiv<Wide>(Wide{INT64_MAX} - length_ms, slide_ms);
    min_pane_ = static_cast<int64_t>((k_min - 1) * (slide_ms / pane_ms_) +
                                     length_ms / pane_ms_);
    max_pane_ = static_cast<int64_t>((k_max + 1) * (slide_ms / pane_ms_) - 1);
  }

  int64_t watermark_ms() const { return watermark_ms_; }
  size_t pending_panes() const { return panes_.size(); }

  // Adds `item` via Acc::Add to the pane of `panes` holding `timestamp_ms`,
  // unless it is late; a pane touched for the first time constructs its
  // accumulator from `acc_args`. Returns false, adding nothing, when a
  // window holding `timestamp_ms` would start or end outside int64.
  template <typename Item, typename... AccArgs>
  bool Fold(Panes& panes, int64_t timestamp_ms, const Item& item,
            const AccArgs&... acc_args) const {
    const int64_t pane = PaneOf(timestamp_ms);
    if (!Fits(pane)) {
      return false;
    }
    if (timestamp_ms >= watermark_ms_) {
      panes.try_emplace(pane, acc_args...).first->second.Add(item);
    }
    return true;
  }

  // Adds a feeder's panes into the buffer's and empties them. Call it in a
  // fixed feeder order; sums of whole-number counts held in doubles are
  // exact in any order.
  void Absorb(Panes& panes) {
    panes_.merge(panes);  // moves over the panes the buffer lacks
    for (const auto& [pane, acc] : panes) {
      panes_.find(pane)->second.Merge(acc);
    }
    panes.clear();
  }

  // Counts one lost item in the pane holding `timestamp_ms`, for every
  // window holding it that fires from now on.
  void NoteLoss(int64_t timestamp_ms) {
    const int64_t pane = PaneOf(timestamp_ms);
    if (Fits(pane) && LastEnd(pane) > watermark_ms_) {
      ++lost_[pane];
    }
  }

  // Advances the watermark to `watermark_ms` and calls fire(window, sum,
  // lost) for every window that ends in (old watermark, watermark_ms] and
  // covers a pane holding an item, in ascending order: `sum` merges the
  // accumulators of its panes and `lost` adds their loss counts. Then drops
  // the panes no unfired window covers.
  template <typename FireFn>
  void Advance(int64_t watermark_ms, FireFn fire) {
    if (watermark_ms <= watermark_ms_) {
      return;
    }
    // Window k is visited at the first pane holding an item that it covers;
    // FirstWindow and LastWindow grow with the pane, so windows come in
    // ascending order, and so do their ends.
    int64_t next = INT64_MIN;  // the first window no earlier pane holds
    for (const auto& entry : panes_) {
      const int64_t last = LastWindow(entry.first);
      int64_t k = std::max(next, FirstWindow(entry.first));
      for (; k <= last && k * slide_ms_ + length_ms_ <= watermark_ms; ++k) {
        if (k * slide_ms_ + length_ms_ > watermark_ms_) {
          FireWindow(k, fire);
        }
      }
      if (k <= last) {
        break;  // window k and every later one end past the watermark
      }
      next = k;
    }
    watermark_ms_ = watermark_ms;
    const auto unfired = [this](const auto& entry) {
      return LastEnd(entry.first) > watermark_ms_;
    };
    panes_.erase(panes_.begin(), std::ranges::find_if(panes_, unfired));
    lost_.erase(lost_.begin(), std::ranges::find_if(lost_, unfired));
  }

 private:
  // Bounds are computed in 128 bits: a hostile timestamp near either end of
  // int64 must be refused, not wrapped into a window elsewhere in time.
  using Wide = __int128;

  template <typename Int>
  static Int FloorDiv(Int x, Int d) {
    return x / d - (x % d < 0 ? 1 : 0);
  }
  int64_t PaneOf(int64_t timestamp_ms) const {
    return FloorDiv(timestamp_ms, pane_ms_);
  }
  // Whether every window holding the pane starts and ends inside int64.
  bool Fits(int64_t pane) const {
    return pane >= min_pane_ && pane <= max_pane_;
  }
  // Window k covers panes [k*delta/P, (k*delta + w)/P), so the windows
  // holding pane p are FirstWindow(p)..LastWindow(p).
  int64_t FirstWindow(Wide pane) const {
    return static_cast<int64_t>(
        FloorDiv<Wide>(pane - length_ms_ / pane_ms_, slide_ms_ / pane_ms_) +
        1);
  }
  int64_t LastWindow(int64_t pane) const {
    return FloorDiv(pane, slide_ms_ / pane_ms_);
  }
  int64_t LastEnd(int64_t pane) const {
    return LastWindow(pane) * slide_ms_ + length_ms_;
  }

  template <typename FireFn>
  void FireWindow(int64_t k, FireFn& fire) {
    const Window window{k * slide_ms_, k * slide_ms_ + length_ms_};
    const int64_t first = window.start_ms / pane_ms_;
    const int64_t end = window.end_ms / pane_ms_;
    auto it = panes_.lower_bound(first);  // the window holds an item
    sum_ = it->second;  // reuses the scratch accumulator's storage
    for (++it; it != panes_.end() && it->first < end; ++it) {
      sum_->Merge(it->second);
    }
    uint64_t lost = 0;
    for (auto l = lost_.lower_bound(first); l != lost_.end() && l->first < end;
         ++l) {
      lost += l->second;
    }
    fire(window, *sum_, lost);
  }

  int64_t length_ms_;
  int64_t slide_ms_;
  int64_t pane_ms_;
  int64_t min_pane_;  // the panes that Fits
  int64_t max_pane_;
  Panes panes_;
  std::map<int64_t, uint64_t> lost_;  // pane index -> lost items
  std::optional<Acc> sum_;            // scratch for the window being fired
  int64_t watermark_ms_ = INT64_MIN;
};

}  // namespace privapprox::engine

#endif  // PRIVAPPROX_ENGINE_WINDOW_H_
