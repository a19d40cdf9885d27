// Existence analyzer for deadlock-free oblivious routing on arbitrary
// directed networks.
//
// The question (after Mendlovic–Matias 2025, "Existence of Deadlock-Free
// Routing for Arbitrary Networks"): given a directed network and a set of
// (source, destination) pairs that must be routed, does ANY oblivious
// routing function exist that serves every pair and is deadlock-free for
// every message multiset and any delay behaviour — i.e. robustly, not just
// under the synchronous adversary of the source paper's Sections 3–5?
//
// The condition we implement is an *increasing channel ordering*: a total
// order `<` on the channels such that every required pair has a directed
// path whose channels strictly increase under `<`. DESIGN.md §14 proves the
// three-way equivalence that makes this decisive:
//
//   (a) an increasing ordering exists
//   (b) a path system for the pairs whose consecutive-dependency relation
//       is acyclic exists
//   (c) an oblivious routing function serving the pairs with an acyclic
//       channel dependency graph exists (deadlock-free by Dally–Seitz,
//       robust to arbitrary per-hop delays)
//
// so the analyzer decides existence of *robustly* deadlock-free routing.
// The source paper's cyclic-CDG algorithms live exactly in the gap this
// leaves open: a network can fail the condition (no acyclic-CDG routing
// exists) yet still admit a routing that is deadlock-free under the
// synchronous model only — Figure 1 is the flagship example, and Section 6
// shows its deadlock freedom is not delay-robust. synthesize.hpp searches
// that gap.
//
// Certificates are checkable:
//   kExists     -> a channel ranking; verify_order() re-derives every
//                  pair's increasing path by monotone reach propagation.
//   kNotExists  -> an obstruction: a (greedily minimized) subset of the
//                  pairs for which the exact placement search proved no
//                  ordering exists; re-running analyze_existence on the
//                  core reproduces the refusal.
//   kInconclusive -> the exact search hit its state budget (the decision
//                  problem is NP-hard in general; heuristic witness passes
//                  answer the common YES instances first).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "topo/network.hpp"

namespace wormsim::synth {

/// One required (source, destination) demand. src == dst is trivially
/// satisfiable and ignored by the analyzer.
struct NodePair {
  NodeId src;
  NodeId dst;
  bool operator==(const NodePair&) const = default;
};

enum class ExistenceVerdict : std::uint8_t {
  kExists,        ///< witness ordering found (and verified)
  kNotExists,     ///< exact search exhausted every placement: no ordering
  kInconclusive,  ///< heuristics failed and the exact budget ran out
};

/// Why a kNotExists verdict holds: a pair subset that is already
/// unsatisfiable. `core` is produced by greedily dropping pairs while the
/// exact search still refuses, so it is small but not guaranteed minimum.
struct Obstruction {
  std::vector<NodePair> core;
  /// States the exact search expanded while refuting the core.
  std::uint64_t states_searched = 0;
  /// Greedy minimization ran to completion (every remaining pair was
  /// re-checked to be necessary within the per-check budget).
  bool minimized = false;
};

struct ExistenceCertificate {
  ExistenceVerdict verdict = ExistenceVerdict::kInconclusive;
  /// kExists: rank per channel (indexed by ChannelId::index()). Ranks need
  /// not be a permutation; a path must strictly increase in rank.
  std::vector<std::uint32_t> order;
  /// Which pass produced the witness: "unreachable" (a pair has no path at
  /// all — a degenerate kNotExists), "identity", "hint", "updown-root<N>",
  /// "greedy", or "exact".
  std::string method;
  Obstruction obstruction;  ///< kNotExists only
  /// States expanded by the exact placement search (0 when a heuristic
  /// pass decided).
  std::uint64_t states_searched = 0;
};

struct ExistenceOptions {
  /// State budget for the exact placement search. Exhausting it yields
  /// kInconclusive, never a wrong verdict.
  std::uint64_t max_states = 250'000;
  /// Try this ranking first (e.g. a Dally–Seitz numbering of a known-good
  /// algorithm's CDG). Must have one entry per channel to be used.
  std::vector<std::uint32_t> hint_order;
};

/// Checks a witness: every pair must have a path whose ranks strictly
/// increase. Runs the monotone reach propagation (rank groups ascending),
/// so it is independent of how the ordering was found. `order` must have
/// one rank per channel.
[[nodiscard]] bool verify_order(const topo::Network& net,
                                std::span<const NodePair> pairs,
                                std::span<const std::uint32_t> order);

/// Decides whether an increasing channel ordering exists for `pairs` on
/// `net`. Deterministic: same inputs give the same certificate bytes.
[[nodiscard]] ExistenceCertificate analyze_existence(
    const topo::Network& net, std::span<const NodePair> pairs,
    const ExistenceOptions& options = {});

/// All ordered pairs of distinct nodes (the default demand of a
/// strongly-connected network).
[[nodiscard]] std::vector<NodePair> all_pairs(const topo::Network& net);

/// All ordered pairs of distinct terminals.
[[nodiscard]] std::vector<NodePair> terminal_pairs(
    std::span<const NodeId> terminals);

/// The demand the analyzer and the synthesizer work on: `pairs` without
/// src == dst entries, sorted by (src, dst), duplicates removed. Every node
/// must belong to `net`.
[[nodiscard]] std::vector<NodePair> canonical_pairs(
    const topo::Network& net, std::span<const NodePair> pairs);

const char* to_string(ExistenceVerdict verdict);

}  // namespace wormsim::synth
