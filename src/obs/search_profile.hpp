// The search-effort profile and the one table that declares its counters.
//
// Every exhaustive search fills a SearchProfile per DFS worker and merges
// the shards into one. Each counter is a field plus one row of
// kProfileCounters, which names it for JSON and says how shards combine.
// merge_from, the status heartbeat's `search` object and worker entries
// (obs/status.cpp), and the campaign and bare-search samplers all loop
// over that table, so adding a counter takes one field, one row, and one
// row in each profile table of docs/observability.md.
//
// TableStats is the same idea for the visited-state table's occupancy: one
// struct, one table of JSON names, one `+=`.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string_view>
#include <type_traits>

#include "obs/metrics.hpp"

namespace wormsim::obs {

/// Where a search spent its effort. memo_misses counts unique states
/// expanded (== states_explored); memo_hits counts transitions into
/// already-visited states, so hits + misses is the total number of state-key
/// lookups.
struct SearchProfile {
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  /// Depth of the deepest state opened for expansion: cycles from the
  /// initial state along the path that registered it, forced steps
  /// included. At threads > 1 it depends on the schedule: a state's depth
  /// is that of whichever worker registered it first.
  std::uint64_t peak_depth = 0;
  /// Adversary assignments generated per expanded state. Branches are
  /// produced lazily, so a state retired early (deadlock found / limits
  /// hit) reports the branches generated so far, not its full fan-out.
  Histogram branch_factor;
  /// States whose assignment enumeration hit analysis::kMaxBranchesPerState.
  std::uint64_t branch_truncations = 0;
  /// Child transitions discarded because they exceeded the delay budget.
  std::uint64_t budget_prunes = 0;
  /// Work-stealing scheduler counters (0 in a serial search). steals counts
  /// items taken from another worker's deque; steal_attempts counts victim
  /// probes (including failed ones); splits counts stack-split events and
  /// split_items the work items they materialized.
  std::uint64_t steals = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t splits = 0;
  std::uint64_t split_items = 0;
  /// Per-worker wall time split into running-an-item (busy) and looking-
  /// for-work (idle) phases. Scheduling telemetry, not determinism-bearing.
  std::uint64_t busy_ns = 0;
  std::uint64_t idle_ns = 0;
  /// StateTable peak accounted footprint (see StateTable::resident_bytes).
  /// Stamped on the merged profile only, like the timing fields; merging
  /// takes the max since shards observe one shared table.
  std::uint64_t table_peak_resident_bytes = 0;
  /// Wall-clock figures, stamped once per search. elapsed_seconds is
  /// clamped to >= 1e-9 so sub-millisecond searches (tiny fixtures, warm
  /// caches) never quantize to 0 and states_per_second stays finite and
  /// nonzero whenever states were explored.
  double elapsed_seconds = 0;
  double states_per_second = 0;

  [[nodiscard]] double memo_hit_rate() const {
    const std::uint64_t lookups = memo_hits + memo_misses;
    return lookups == 0 ? 0
                        : static_cast<double>(memo_hits) /
                              static_cast<double>(lookups);
  }

  /// Folds a worker's profile into this accumulator: each counter by its
  /// kProfileCounters rule, branch_factor histograms merged,
  /// table_peak_resident_bytes maxed. Timing fields are left untouched (the
  /// engine stamps wall-clock figures once at the end).
  void merge_from(const SearchProfile& other);
};

// Plain data: publishing a shard to the status board and returning
// per-worker profiles copy bytes, never a heap buffer.
static_assert(std::is_trivially_copyable_v<SearchProfile>);

struct ProfileCounter {
  std::string_view name;  ///< JSON key in the status heartbeat
  std::uint64_t SearchProfile::*field;
  Merge merge;
};

/// Every profile counter, in the order the heartbeat emits them.
inline constexpr std::array kProfileCounters{
    ProfileCounter{"memo_hits", &SearchProfile::memo_hits, Merge::kSum},
    ProfileCounter{"memo_misses", &SearchProfile::memo_misses, Merge::kSum},
    ProfileCounter{"peak_depth", &SearchProfile::peak_depth, Merge::kMax},
    ProfileCounter{"branch_truncations", &SearchProfile::branch_truncations,
                   Merge::kSum},
    ProfileCounter{"budget_prunes", &SearchProfile::budget_prunes,
                   Merge::kSum},
    ProfileCounter{"steals", &SearchProfile::steals, Merge::kSum},
    ProfileCounter{"steal_attempts", &SearchProfile::steal_attempts,
                   Merge::kSum},
    ProfileCounter{"splits", &SearchProfile::splits, Merge::kSum},
    ProfileCounter{"split_items", &SearchProfile::split_items, Merge::kSum},
    ProfileCounter{"busy_ns", &SearchProfile::busy_ns, Merge::kSum},
    ProfileCounter{"idle_ns", &SearchProfile::idle_ns, Merge::kSum},
};

inline void SearchProfile::merge_from(const SearchProfile& other) {
  for (const ProfileCounter& c : kProfileCounters)
    merge_counter(c, *this, other);
  branch_factor.merge_from(other.branch_factor);
  table_peak_resident_bytes =
      std::max(table_peak_resident_bytes, other.table_peak_resident_bytes);
}

/// Occupancy and contention of a search's visited-state table
/// (analysis::StateTable::stats). A search's segments, and a campaign's
/// concurrent searches, add up with +=.
struct TableStats {
  std::uint64_t keys = 0;             ///< distinct keys stored
  std::uint64_t slots = 0;            ///< slot capacity, all stripes
  std::uint64_t arena_bytes = 0;      ///< raw key bytes resident
  std::uint64_t stripes = 0;
  std::uint64_t contended_locks = 0;  ///< lookups that had to wait
  std::uint64_t resident_bytes = 0;   ///< accounted footprint (== peak)

  TableStats& operator+=(const TableStats& other);
};

struct TableStat {
  std::string_view name;  ///< JSON key in the heartbeat's `search` object
  std::uint64_t TableStats::*field;
};

inline constexpr std::array kTableStats{
    TableStat{"table_keys", &TableStats::keys},
    TableStat{"table_slots", &TableStats::slots},
    TableStat{"table_arena_bytes", &TableStats::arena_bytes},
    TableStat{"table_stripes", &TableStats::stripes},
    TableStat{"table_contended_locks", &TableStats::contended_locks},
    TableStat{"table_resident_bytes", &TableStats::resident_bytes},
};

inline TableStats& TableStats::operator+=(const TableStats& other) {
  for (const TableStat& s : kTableStats) this->*s.field += other.*s.field;
  return *this;
}

}  // namespace wormsim::obs
