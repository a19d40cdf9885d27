// Counters and distributions the simulator and the search keep, each
// declared once.
//
// Histogram is the fixed-bucket distribution behind the search profile's
// branch factor. EventCoreStats holds the event-driven run core's scheduler
// counters; each is a field plus one row of kEventCoreCounters, which names
// it for JSON and says how two runs combine. The status heartbeat's `sim`
// object (obs/status.cpp) and the saturation report's per-load rows and
// heartbeat fold (tools/wormsim_saturation.cpp) all loop over that table,
// so adding a counter takes one field, one row, and one row in the `sim`
// table of docs/observability.md. Merge is shared with the search
// profile's kProfileCounters (obs/search_profile.hpp).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string_view>

namespace wormsim::obs {

/// Fixed-bucket histogram with cumulative-style buckets: an observation v
/// lands in the first bucket whose upper bound satisfies v <= bound; values
/// above every bound land in the +Inf overflow bucket. The bounds are the
/// powers of two 1 .. 4096, so a histogram is plain data that copies and
/// merges without allocating.
class Histogram {
 public:
  /// Finite upper bounds (ascending). counts() has one extra entry: the
  /// overflow bucket.
  static constexpr std::array<double, 13> kBounds{
      1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096};
  using Counts = std::array<std::uint64_t, kBounds.size() + 1>;

  void observe(double v);

  /// Folds another histogram's observations into this one. Used to combine
  /// the parallel deadlock search's per-worker profiles.
  void merge_from(const Histogram& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] double max() const { return count_ == 0 ? 0 : max_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
  }

  [[nodiscard]] const Counts& counts() const { return counts_; }

  /// Upper bound of the bucket containing the p-quantile (0 <= p <= 1) of
  /// the observations — the histogram analogue of a percentile query. For
  /// observations beyond the last finite bound, returns the observed max.
  [[nodiscard]] double percentile(double p) const;

  /// The quantiles the status snapshots report (median, tail, far tail).
  [[nodiscard]] double p50() const { return percentile(0.50); }
  [[nodiscard]] double p90() const { return percentile(0.90); }
  [[nodiscard]] double p99() const { return percentile(0.99); }

 private:
  Counts counts_{};
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// How one counter's shards (or successive runs) combine.
enum class Merge : std::uint8_t { kSum, kMax };

/// Folds `from`'s value of counter `c` into `into` by the counter's rule.
template <typename Counter, typename Stats>
void merge_counter(const Counter& c, Stats& into, const Stats& from) {
  into.*c.field = c.merge == Merge::kSum
                      ? into.*c.field + from.*c.field
                      : std::max(into.*c.field, from.*c.field);
}

/// Introspection counters from the event-driven run core
/// (WormholeSimulator::run() under SimCore::kEvent). Zero until the first
/// event run; cumulative across runs of the same simulator. An "event" is
/// one scheduler entry: a ready-set enqueue, a sleep timer (release
/// expiry), or a blocked header's entry in a channel-wait heap.
struct EventCoreStats {
  std::uint64_t events_scheduled = 0;  ///< scheduler entries enqueued
  std::uint64_t events_fired = 0;      ///< entries that dispatched work
  std::uint64_t events_cancelled = 0;  ///< stale entries discarded unfired
  std::uint64_t queue_peak = 0;  ///< peak ready, sleeping and parked messages
  std::uint64_t cycles_executed = 0;  ///< cycles actually processed
  std::uint64_t cycles_skipped = 0;   ///< idle cycles jumped over

  /// Folds another run's counters in, each by its kEventCoreCounters rule.
  void merge_from(const EventCoreStats& other);
};

struct EventCoreCounter {
  std::string_view name;  ///< JSON key in the heartbeat and report rows
  std::uint64_t EventCoreStats::*field;
  Merge merge;
};

/// Every event-core counter, in the order the heartbeat emits them.
inline constexpr std::array kEventCoreCounters{
    EventCoreCounter{"cycles_executed", &EventCoreStats::cycles_executed,
                     Merge::kSum},
    EventCoreCounter{"cycles_skipped", &EventCoreStats::cycles_skipped,
                     Merge::kSum},
    EventCoreCounter{"events_scheduled", &EventCoreStats::events_scheduled,
                     Merge::kSum},
    EventCoreCounter{"events_fired", &EventCoreStats::events_fired,
                     Merge::kSum},
    EventCoreCounter{"events_cancelled", &EventCoreStats::events_cancelled,
                     Merge::kSum},
    EventCoreCounter{"queue_peak", &EventCoreStats::queue_peak, Merge::kMax},
};

inline void EventCoreStats::merge_from(const EventCoreStats& other) {
  for (const EventCoreCounter& c : kEventCoreCounters)
    merge_counter(c, *this, other);
}

}  // namespace wormsim::obs
