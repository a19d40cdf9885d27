// Exhaustive reachability search for deadlock configurations.
//
// Decides, for a finite multiset of messages on a finite network, whether
// *any* execution of the wormhole model can reach a deadlock (Definition 6).
// This is the mechanical replacement for the paper's hand case analyses:
// Theorem 1 ("the Figure-1 cycle is unreachable") becomes "the search
// exhausts the synchronous-adversary state space without finding deadlock",
// and the Figure-2/3 deadlock constructions become witnesses the search
// finds.
//
// Two adversary models:
//  - kSynchronous — the paper's Section 3–5 model: routers operate in
//    lockstep; a header whose output channel is available advances
//    immediately; the adversary controls only (a) message generation times
//    and (b) the winner of every simultaneous-arbitration tie. This is the
//    model under which the Cyclic Dependency algorithm is deadlock-free.
//  - kBoundedDelay — the Section-6 model: additionally, any in-flight header
//    may be stalled while its output channel is free, at a cost of one delay
//    unit per stalled message-cycle, subject to a total or per-message
//    budget. Section 6's claim "the generalized construction needs at least
//    k cycles of delay to deadlock" is measured by minimal_deadlock_delay.
//
// The search is a depth-first exploration of the nondeterministic-grant
// transition system with memoization on the time-independent state key, so a
// negative answer within the state bound is a *proof* of unreachability for
// the given message multiset, buffer depth and (in kBoundedDelay) budget.
//
// Engine (see DESIGN.md §9 and §16): states are memoized in a byte-exact
// StateTable (state_table.hpp); adversary assignments are generated lazily
// by a mixed-radix odometer, so DFS frames hold a cursor rather than a
// materialized branch vector; and with SearchLimits::threads > 1 the
// workers run a work-stealing DFS: each worker owns a deque of subtree-root
// work items, pushes dynamically split-off subtrees of its own stack when
// peers starve, and steals from the front of a victim's deque when its own
// runs dry. Results equal the serial search's except peak_depth, the
// per-worker shards, the scheduler counters, the memo table's footprint
// (it has more stripes) and timing. The workers' shared visited table
// jointly covers the reachable space, so a negative run that completes
// keeps the parallel counts, which equal the serial ones; any run that
// stops early — on a deadlock, max_states or the memo budget — is
// re-derived by the serial search, whose result it returns. A found
// deadlock is replayed through step_with_grants from the initial state to
// rebuild the exact configuration and witness.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/configuration.hpp"
#include "analysis/reduction.hpp"
#include "obs/search_profile.hpp"
#include "sim/simulator.hpp"

namespace wormsim::analysis {

class SearchStatusBoard;  // analysis/search_status.hpp

enum class AdversaryModel {
  kSynchronous,   ///< paper Sections 3–5: progress mandatory, ties adversarial
  kBoundedDelay,  ///< Section 6: in-flight stalls allowed within a budget
};

enum class DelayMetric {
  kTotal,          ///< budget bounds the sum of stalled message-cycles
  kMaxPerMessage,  ///< budget bounds each message's stalled cycles
};

/// Safety valve against pathological branching: a state's adversary
/// assignments are enumerated up to this many (counted by the profile's
/// branch_truncations). Folded into the truth fingerprint.
inline constexpr std::size_t kMaxBranchesPerState = 4096;
// The profile's branch_factor histogram ends its finite buckets here, so a
// truncated state's 4096 branches land in the last one, never in overflow.
static_assert(obs::Histogram::kBounds.back() == kMaxBranchesPerState);

struct SearchLimits {
  std::uint32_t buffer_depth = 1;
  std::uint64_t max_states = 2'000'000;
  /// kBoundedDelay only: the delay budget (see DelayMetric).
  std::uint32_t delay_budget = 0;
  DelayMetric metric = DelayMetric::kTotal;
  /// Build the human-readable witness lines on deadlock. The machine
  /// witness (witness_grants) is always produced; the strings are pure
  /// presentation, so long sweeps can turn them off.
  bool build_witness = true;
  /// DFS worker threads. 1 (the default) runs fully serially. Values > 1
  /// run this many work-stealing DFS workers over a shared visited table.
  /// 0 means std::thread::hardware_concurrency(). The result equals the
  /// serial search's except peak_depth, the per-worker shards, the
  /// scheduler counters, table_peak_resident_bytes and timing. A negative
  /// run that completes keeps the parallel counts (each unique state is
  /// expanded exactly once whoever reaches it); any run stopped early, by a
  /// deadlock or a limit, is re-derived serially.
  unsigned threads = 1;
  /// Cap on the StateTable's logical resident bytes (0 = unlimited).
  /// Overflow ends the search non-exhausted, exactly like max_states.
  /// Folds into the campaign truth fingerprint when set.
  std::uint64_t memo_budget_bytes = 0;
  /// Symmetry reduction and root decomposition (see reduction.hpp and
  /// DESIGN.md §12). kSafe (the default) preserves verdicts and
  /// witnesses-by-replay while visiting fewer states; kOff reproduces the
  /// unreduced enumeration bit for bit and is the cross-check reference.
  /// states_explored and the profile counters differ between the modes.
  /// This is the one declaration of the search default: the campaign and
  /// the CLIs derive theirs from it.
  ReductionMode reduction = ReductionMode::kSafe;
  /// Live telemetry hook (analysis/search_status.hpp). When non-null the
  /// engine publishes per-worker profile shards, frontier depth and
  /// state-table occupancy into the board as it runs; a null board costs
  /// one branch per fresh state and nothing else. The board
  /// must outlive the search, and observes one search at a time — one per
  /// find_deadlock call, even when kSafe splits it into component runs.
  /// minimal_deadlock_delay's concurrent per-budget scans therefore run
  /// unobserved. Purely observational: verdicts, witnesses and profile
  /// totals are identical with and without a board attached.
  SearchStatusBoard* status = nullptr;
};

/// The search-effort profile is declared in obs with its counter table, so
/// the status heartbeat can loop over it without depending on analysis.
using SearchProfile = obs::SearchProfile;

struct DeadlockSearchResult {
  bool deadlock_found = false;
  /// True when the full bounded space was explored; a negative result is
  /// then a proof of deadlock freedom for these messages/budget.
  bool exhausted = true;
  std::uint64_t states_explored = 0;
  /// Populated when a deadlock was found:
  Configuration deadlock_configuration;
  std::vector<MessageId> deadlock_cycle;
  std::uint32_t delay_used_total = 0;
  std::uint32_t delay_used_max = 0;
  /// Search effort profile (always populated).
  SearchProfile profile;
  /// Per-worker profile shards, one entry per DFS worker (a serial search
  /// has exactly one; a decomposed search merges each component's shards
  /// index-wise). merge_from-folding every shard into a fresh SearchProfile
  /// reproduces `profile`'s counters exactly — the shards are a partition
  /// of the search effort, kept so tooling can see where each thread spent
  /// its time. Timing fields are only stamped on the merged profile.
  std::vector<SearchProfile> worker_profiles;
  /// Human-readable grant trace leading to the deadlock (one line/cycle).
  /// Empty when SearchLimits::build_witness is false.
  std::vector<std::string> witness;
  /// Machine-replayable witness: the grant assignment of every cycle from
  /// the empty network to the deadlock. Feeding these to
  /// WormholeSimulator::step_with_grants on a fresh simulator with the same
  /// messages reproduces the deadlock configuration exactly.
  std::vector<std::vector<std::pair<ChannelId, MessageId>>> witness_grants;
};

/// Searches for a reachable deadlock among executions of `messages` under
/// `alg`. All specs must have release_time 0 — generation timing and
/// stalling are the adversary's choices inside the search.
DeadlockSearchResult find_deadlock(const routing::RoutingAlgorithm& alg,
                                   std::span<const sim::MessageSpec> messages,
                                   AdversaryModel model,
                                   const SearchLimits& limits);

/// Adaptive-routing variant: the adversary additionally resolves every
/// header's choice among its candidate output channels, and in the
/// synchronous model a moving header must take a channel whenever one of
/// its candidates is free — which is exactly why Duato-style escape
/// channels guarantee progress.
DeadlockSearchResult find_deadlock(const routing::AdaptiveRouting& alg,
                                   std::span<const sim::MessageSpec> messages,
                                   AdversaryModel model,
                                   const SearchLimits& limits);

/// Smallest delay budget (per `metric`) at which a deadlock becomes
/// reachable, scanning budgets 0..max_budget. nullopt when none within the
/// bound (definitive if every scan exhausted its space, which is reported
/// through `*exhausted_out` when provided).
std::optional<std::uint32_t> minimal_deadlock_delay(
    const routing::RoutingAlgorithm& alg,
    std::span<const sim::MessageSpec> messages, DelayMetric metric,
    std::uint32_t max_budget, SearchLimits limits,
    bool* exhausted_out = nullptr);

}  // namespace wormsim::analysis
