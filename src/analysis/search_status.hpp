// Live introspection into a running deadlock search.
//
// A SearchStatusBoard is the rendezvous between one search and one sampler
// thread. find_deadlock attaches at start (SearchLimits::status) and
// detaches at the end; in between, each engine run — one per route-disjoint
// component of a decomposed search — is a segment that publishes its
// per-worker SearchProfile shards, frontier cursor and StateTable occupancy
// as it explores, and is folded into the search's totals when it ends. A
// sampler (obs::StatusSampler, or anything else) calls sample() at any time
// and gets a coherent picture of the in-flight search. Publication is periodic
// and amortized — workers copy their local profile into a mutex-guarded
// shard every ~1k fresh states — so the hot path stays allocation-free and
// the whole mechanism is TSan-clean: every shared field is either an atomic
// or written/read under a lock.
//
// A board observes one search at a time; sequential searches (a campaign
// scenario's probes) reuse the board, bumping searches_started/finished —
// once per find_deadlock call, however many segments it ran. Between
// searches, sample() reports the final numbers of the last search with
// active=false.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "analysis/deadlock_search.hpp"
#include "analysis/state_table.hpp"
#include "obs/status.hpp"

namespace wormsim::analysis {

class SearchStatusBoard {
 public:
  /// One coherent observation. Worker profiles, states, frontier and table
  /// figures cover the current (or last) search: its finished segments
  /// plus the live one. They reset when a new search attaches.
  struct Sample {
    bool active = false;  ///< a search is attached right now
    std::uint64_t searches_started = 0;
    std::uint64_t searches_finished = 0;
    std::uint64_t states_explored = 0;  ///< current (or last) search
    std::uint64_t max_states = 0;
    std::uint64_t frontier_size = 0;  ///< work items created so far
    std::uint64_t frontier_next = 0;  ///< work items completed so far
    double elapsed_seconds = 0;       ///< current search; final when idle
    obs::TableStats table;            ///< summed over the search's segments
    std::vector<SearchProfile> workers;
  };

  SearchStatusBoard() = default;
  SearchStatusBoard(const SearchStatusBoard&) = delete;
  SearchStatusBoard& operator=(const SearchStatusBoard&) = delete;

  /// Safe to call from any thread, any time.
  [[nodiscard]] Sample sample() const;

  // --- engine side (deadlock_search.cpp) -------------------------------
  // begin_search and begin_segment happen-before any publish (the engine
  // spawns its workers after attaching), and every publish happens-before
  // end_segment (thread join) — so the shard vector is only resized while
  // no worker publishes.

  void begin_search(std::size_t workers, std::uint64_t max_states);
  /// Detaches; the search's totals stay readable until the next attach.
  void end_search();
  /// One engine run starts; `table` is its live state table.
  void begin_segment(const StateTable* table);
  /// Folds the segment's shards, states, frontier and final table stats
  /// into the search's totals (the table may be destroyed right after).
  void end_segment(std::uint64_t final_states);
  /// The segment's shard `worker` now reads `profile`.
  void publish_worker(std::size_t worker, const SearchProfile& profile);
  void publish_states(std::uint64_t states) {
    states_.store(states, std::memory_order_relaxed);
  }
  void set_frontier(std::uint64_t size) {
    frontier_size_.store(size, std::memory_order_relaxed);
  }
  void publish_frontier_next(std::uint64_t next) {
    frontier_next_.store(next, std::memory_order_relaxed);
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    SearchProfile done;  ///< finished segments of the current search
    SearchProfile live;  ///< the running segment
  };

  mutable std::mutex mu_;  // attach/detach state, shard count, table, done_*
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t active_workers_ = 0;
  const StateTable* table_ = nullptr;  ///< the running segment's
  obs::TableStats done_table_;
  std::uint64_t done_states_ = 0;
  std::uint64_t done_frontier_size_ = 0;
  std::uint64_t done_frontier_next_ = 0;
  bool active_ = false;
  std::uint64_t searches_started_ = 0;
  std::uint64_t searches_finished_ = 0;
  std::chrono::steady_clock::time_point search_start_{};
  double last_elapsed_ = 0;
  std::atomic<std::uint64_t> max_states_{0};
  // The running segment's counters (relaxed; written by its workers).
  std::atomic<std::uint64_t> states_{0};
  std::atomic<std::uint64_t> frontier_size_{0};
  std::atomic<std::uint64_t> frontier_next_{0};
};

/// Folds board samples into the heartbeat's `search` object: gauges and
/// table stats add up (max_states takes the largest), and every worker
/// shard merges into one profile. A campaign passes one sample per shard.
[[nodiscard]] obs::SearchStatus to_search_status(
    std::span<const SearchStatusBoard::Sample> samples);

/// A complete kind="search" snapshot for a bare find_deadlock run — the
/// producer a StatusSampler needs to heartbeat a standalone search:
///
///   SearchStatusBoard board;
///   limits.status = &board;
///   obs::StatusSampler sampler(path, 1.0,
///       [&board] { return search_status_snapshot(board); });
[[nodiscard]] obs::StatusSnapshot search_status_snapshot(
    const SearchStatusBoard& board);

}  // namespace wormsim::analysis
