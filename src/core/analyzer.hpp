// UnreachableCycleAnalyzer — the library's top-level facade.
//
// Given an oblivious routing algorithm, classifies its deadlock behaviour:
//   1. build the channel dependency graph;
//   2. if acyclic, emit the Dally–Seitz numbering certificate (deadlock-free
//      by the classical theorem);
//   3. otherwise, derive from the cycle edges' witnesses the message set
//      that can exercise the cyclic dependencies (each witness pair at the
//      minimum length needed to hold its in-cycle channels) and run the
//      exhaustive reachability search;
//   4. verdict: DEADLOCK-REACHABLE with a concrete schedule witness, or
//      FALSE-RESOURCE-CYCLE (the paper's unreachable configuration) when
//      the bounded space is exhausted without a deadlock.
#pragma once

#include <optional>

#include "analysis/deadlock_search.hpp"
#include "cdg/cdg.hpp"

namespace wormsim::core {

class CyclicFamily;  // cyclic_family.hpp

enum class CycleVerdict {
  kAcyclicCdg,         ///< no CDG cycle: classical Dally–Seitz freedom
  kFalseResourceCycle, ///< cyclic CDG but no reachable deadlock (Theorem 1)
  kDeadlockReachable,  ///< a deadlock configuration is reachable
  kInconclusive,       ///< search bounds exhausted before a decision
};

struct AlgorithmAnalysis {
  CycleVerdict verdict = CycleVerdict::kInconclusive;
  std::size_t cdg_edges = 0;
  std::size_t cyclic_scc_count = 0;
  std::size_t elementary_cycle_count = 0;
  /// Dally–Seitz certificate when the CDG is acyclic.
  std::optional<std::vector<std::uint32_t>> numbering;
  /// Messages used to probe cycle reachability (derived from witnesses).
  std::vector<sim::MessageSpec> probe_messages;
  analysis::DeadlockSearchResult search;
};

/// Full analysis of `alg` (CDG + reachability of its cycles).
AlgorithmAnalysis analyze_algorithm(const routing::RoutingAlgorithm& alg,
                                    const analysis::SearchLimits& limits = {});

/// Derives the probe messages for the given CDG's cyclic SCCs: one message
/// per witness pair whose route traverses an in-SCC channel, with length
/// equal to its number of in-SCC channels (the minimum needed to hold them).
std::vector<sim::MessageSpec> derive_probe_messages(
    const routing::RoutingAlgorithm& alg,
    const cdg::ChannelDependencyGraph& g);

/// Bounded-but-thorough reachability probe for a CyclicFamily ring:
/// searches the base message multiset (minimum lengths), and — because the
/// paper's necessity constructions block a message outside the ring "by
/// creating a long enough message" (Assumption 1 allows arbitrary lengths) —
/// repeats the search with one long auxiliary copy of each ring message in
/// turn. `deadlock_found` is definitive; a negative verdict is definitive
/// within these probe bounds (recorded via `exhausted`).
struct FamilyProbeResult {
  bool deadlock_found = false;
  bool exhausted = true;
  /// Index of the ring message whose auxiliary copy enabled the deadlock,
  /// or SIZE_MAX when the base multiset already deadlocks / none found.
  std::size_t auxiliary_index = static_cast<std::size_t>(-1);
  analysis::DeadlockSearchResult search;  ///< the deciding search
  std::uint64_t total_states = 0;
};

FamilyProbeResult probe_family_deadlock(
    const CyclicFamily& family,
    analysis::SearchLimits limits = analysis::SearchLimits{});

const char* to_string(CycleVerdict verdict);

}  // namespace wormsim::core
