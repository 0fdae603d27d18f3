// Sliding event-time windows (paper §2.2, §3.2.4).
//
// Queries execute as sliding-window computations: window length w, sliding
// interval delta (Eq 1). The assigner maps an event timestamp to every
// window containing it; AccumulatingWindowBuffer folds each item into its
// windows' accumulators and hands back windows whose end has passed the
// watermark, mirroring how the aggregator "adapts the computation window to
// the current start time t by removing all old data items ... then adds the
// newly incoming data items".

#ifndef PRIVAPPROX_ENGINE_WINDOW_H_
#define PRIVAPPROX_ENGINE_WINDOW_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace privapprox::engine {

struct Window {
  int64_t start_ms = 0;
  int64_t end_ms = 0;
  bool operator==(const Window&) const = default;
  auto operator<=>(const Window&) const = default;
};

class SlidingWindowAssigner {
 public:
  // length >= slide > 0; windows start at multiples of `slide`.
  SlidingWindowAssigner(int64_t length_ms, int64_t slide_ms);

  int64_t length_ms() const { return length_ms_; }
  int64_t slide_ms() const { return slide_ms_; }

  // All windows [start, start + length) that contain `timestamp`.
  std::vector<Window> WindowsFor(int64_t timestamp_ms) const;

  // Allocation-free variant for the hot path: clears `out` and appends the
  // same windows, newest first. Tumbling windows (length == slide) resolve
  // to the single containing window without the backwards scan.
  void AppendWindowsFor(int64_t timestamp_ms, std::vector<Window>& out) const;

 private:
  int64_t length_ms_;
  int64_t slide_ms_;
};

// Shard-local window state for additive aggregates (aggregator scale-out):
// instead of buffering every item, each pending window keeps one
// accumulator that items are folded into on arrival. Fired accumulators
// are handed back to the caller rather than a callback, so a coordinator
// can merge the same window's accumulators from many shards (in shard
// order — the merge is order-free for additive counts, but a fixed order
// keeps runs bit-identical) before acting on the window. Data behind the
// watermark is dropped and counted late (as in the prototype's event-time
// join), the watermark never moves backwards, and a drain-all flush pins
// it at INT64_MAX: the stream is over, so a later fold counts as late
// instead of silently starting a window that could never fire.
template <typename Acc>
class AccumulatingWindowBuffer {
 public:
  explicit AccumulatingWindowBuffer(SlidingWindowAssigner assigner)
      : assigner_(assigner) {}

  // Folds `item` into every window containing `timestamp_ms` via
  // `Acc::Add(item)`; a window touched for the first time gets its
  // accumulator from `make()`.
  template <typename Item, typename MakeFn>
  void Fold(int64_t timestamp_ms, const Item& item, MakeFn make) {
    if (timestamp_ms < watermark_ms_) {
      ++late_dropped_;
      return;
    }
    assigner_.AppendWindowsFor(timestamp_ms, windows_scratch_);
    for (const Window& window : windows_scratch_) {
      auto it = pending_.find(window);
      if (it == pending_.end()) {
        it = pending_.emplace(window, make()).first;
      }
      it->second.Add(item);
    }
  }

  // Advances the watermark and moves every now-complete window's
  // accumulator into `out` (appended in ascending window order).
  void DrainFired(int64_t watermark_ms,
                  std::vector<std::pair<Window, Acc>>& out) {
    if (watermark_ms <= watermark_ms_) {
      return;
    }
    watermark_ms_ = watermark_ms;
    auto it = pending_.begin();
    while (it != pending_.end() && it->first.end_ms <= watermark_ms_) {
      out.emplace_back(it->first, std::move(it->second));
      it = pending_.erase(it);
    }
  }

  // Moves everything pending into `out` (end of stream) and pins the
  // watermark at INT64_MAX so later folds count as late.
  void DrainAll(std::vector<std::pair<Window, Acc>>& out) {
    for (auto& [window, acc] : pending_) {
      out.emplace_back(window, std::move(acc));
    }
    pending_.clear();
    watermark_ms_ = INT64_MAX;
  }

  size_t pending_windows() const { return pending_.size(); }
  uint64_t late_dropped() const { return late_dropped_; }
  int64_t watermark_ms() const { return watermark_ms_; }

 private:
  SlidingWindowAssigner assigner_;
  std::map<Window, Acc> pending_;
  std::vector<Window> windows_scratch_;
  int64_t watermark_ms_ = INT64_MIN;
  uint64_t late_dropped_ = 0;
};

}  // namespace privapprox::engine

#endif  // PRIVAPPROX_ENGINE_WINDOW_H_
