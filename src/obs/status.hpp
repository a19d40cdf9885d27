// Live run telemetry: heartbeat status snapshots.
//
// A long campaign or search is a black box until it exits; this header makes
// it observable in flight. Three pieces:
//
//   StatusSnapshot — a plain-number picture of one moment of a run: campaign
//     progress, truth-cache hit rates, and search-engine internals (per-
//     worker profile shards, frontier depth, state-table occupancy). The
//     struct holds only numbers, strings and the obs-level SearchProfile
//     and EventCoreStats (obs/search_profile.hpp, obs/metrics.hpp), so obs
//     stays below sim/analysis/campaign in the layering — producers mirror
//     their own state into it.
//
//   StatusWriter — publishes a snapshot as one JSON file, atomically
//     (util::write_file_atomic: a unique sibling temp file rename(2)d over
//     the destination). A reader either sees the previous complete
//     snapshot or the new complete snapshot, never a torn mix.
//
//   StatusSampler — a background thread that calls a producer callback on a
//     fixed interval, derives a rolling completion rate / ETA from
//     successive snapshots, and hands the result to a StatusWriter. Stopping
//     the sampler writes one final snapshot with running=false, so a
//     finished run always leaves a complete heartbeat behind.
//
// The snapshot schema is versioned (kStatusSchema) and documented
// field-by-field in docs/observability.md; tests pin the two against each
// other. Producers must be thread-safe: the callback runs on the sampler
// thread while the run's workers are mutating the counters it reads.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/search_profile.hpp"

namespace wormsim::obs {

/// The `schema` value of every snapshot. Any field addition, removal or
/// rename bumps the version (docs/observability.md).
inline constexpr std::string_view kStatusSchema = "wormsim-status-v6";

/// What the search engine(s) are doing right now: live gauges, the worker
/// profile shards merged, and the state tables' occupancy. All-zero when no
/// search has run yet.
struct SearchStatus {
  bool active = false;  ///< a search is attached and running this instant
  std::uint64_t searches_started = 0;
  std::uint64_t searches_finished = 0;
  std::uint64_t states_explored = 0;  ///< current (or last) search
  std::uint64_t max_states = 0;
  std::uint64_t frontier_size = 0;  ///< work items created so far
  std::uint64_t frontier_next = 0;  ///< work items completed so far
  SearchProfile profile;
  TableStats table;
};

/// One worker's accumulated contribution. For a campaign this is a campaign
/// worker thread (scenario verdict counts plus its merged search profile);
/// for a bare search it is one DFS worker (verdict counts stay zero).
struct WorkerStatus {
  /// The index the worker is evaluating; the snapshot's `count` when idle.
  std::uint64_t in_flight = 0;
  std::uint64_t done = 0;
  std::uint64_t agree = 0;
  std::uint64_t disagree = 0;
  std::uint64_t skip = 0;
  std::uint64_t states = 0;
  SearchProfile profile;
};

/// What a simulator-driven run (saturation sweep, throughput bench) is
/// doing right now: the runs' WormholeSimulator::event_stats() folded
/// together, plus message progress. All-zero when the run drives no
/// simulator (a search/campaign heartbeat) or the cycle core is in use and
/// has nothing to report.
struct SimStatus {
  bool active = false;   ///< a simulation is attached and running
  std::string core = "cycle";  ///< "cycle" or "event"
  EventCoreStats events;
  std::uint64_t messages_total = 0;
  std::uint64_t messages_consumed = 0;
  double busy_channel_fraction = 0;  ///< busy channel-cycles / total
};

/// One heartbeat. Everything is emitted on every write (fields never come
/// and go), in a fixed key order, so the schema is byte-stable.
struct StatusSnapshot {
  std::string kind = "campaign";  ///< "campaign", "search", "synth", ...
  std::uint64_t seq = 0;          ///< stamped by StatusWriter (1, 2, ...)
  std::uint64_t pid = 0;          ///< stamped by StatusWriter
  bool running = true;            ///< false only on the final snapshot
  double elapsed_seconds = 0;     ///< stamped by StatusSampler

  // progress (zeros for kind="search")
  std::uint64_t count = 0;  ///< scenarios in the whole campaign
  std::uint64_t done = 0;
  std::uint64_t agree = 0;
  std::uint64_t disagree = 0;
  std::uint64_t skip = 0;
  std::uint64_t states_total = 0;
  double rate_per_second = 0;  ///< rolling window, stamped by StatusSampler
  double eta_seconds = 0;      ///< -1 when no rate is available yet

  // truth_cache
  std::uint64_t truth_disk_hits = 0;
  std::uint64_t truth_memo_hits = 0;
  std::uint64_t truth_misses = 0;
  double truth_hit_rate = 0;

  SimStatus sim;
  SearchStatus search;
  std::vector<WorkerStatus> workers;

  /// Serializes as the documented kStatusSchema JSON object. u64
  /// fields are emitted exactly (json::number_u64), never through doubles.
  [[nodiscard]] std::string to_json() const;
};

/// Atomically publishes snapshots to one path, stamping seq/pid.
class StatusWriter {
 public:
  explicit StatusWriter(std::string path);

  /// Serializes and atomically replaces the file (temp + rename). Creates
  /// missing parent directories on first use. Returns false on I/O failure
  /// (the destination is left untouched).
  bool write(StatusSnapshot snapshot);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t writes() const { return seq_; }
  [[nodiscard]] std::uint64_t write_failures() const { return failures_; }

 private:
  std::string path_;
  std::uint64_t seq_ = 0;
  std::uint64_t failures_ = 0;
};

/// Parses a duration flag such as --status-interval: a whole-string
/// decimal number of seconds that is finite and > 0. Anything else —
/// trailing text, NaN, inf, an out-of-range literal like 1e400, zero or a
/// negative — yields nullopt, which every CLI reports as "bad value for".
[[nodiscard]] std::optional<double> parse_seconds(const char* text);

/// Background heartbeat thread: producer -> rate/ETA -> StatusWriter.
class StatusSampler {
 public:
  /// Builds the current snapshot. Runs on the sampler thread; must be safe
  /// to call concurrently with the run's own workers.
  using Producer = std::function<StatusSnapshot()>;

  /// Writes an initial snapshot immediately (so the file exists as soon as
  /// the run starts), then one every `interval_seconds` (clamped to
  /// [kMinIntervalSeconds, kMaxIntervalSeconds]; NaN reads as the minimum,
  /// so no caller can hand the wait an infinite or undefined duration)
  /// until stop(). The producer outlive the sampler.
  StatusSampler(std::string path, double interval_seconds, Producer producer);
  ~StatusSampler();  ///< stop()

  static constexpr double kMinIntervalSeconds = 0.01;
  static constexpr double kMaxIntervalSeconds = 86400;

  /// Idempotent. Joins the thread and writes one final snapshot with
  /// running=false — after stop() returns, the file on disk reflects the
  /// producer's final state.
  void stop();

  [[nodiscard]] std::uint64_t writes() const;
  [[nodiscard]] std::uint64_t write_failures() const;

 private:
  void loop();
  void write_once(bool running);

  StatusWriter writer_;
  double interval_seconds_;
  Producer producer_;
  std::chrono::steady_clock::time_point started_;

  mutable std::mutex mu_;  // guards stop_ (cv) and writer_/window_ (writes)
  std::condition_variable cv_;
  bool stop_ = false;
  bool joined_ = false;
  std::deque<std::pair<double, std::uint64_t>> window_;  // (elapsed, done)
  std::thread thread_;
};

}  // namespace wormsim::obs
