// Oblivious routing-table synthesizer.
//
// Given a topology and a demand (the (source, destination) pairs that must
// be routed), produce a deadlock-free oblivious routing table, guided by the
// existence analyzer (existence.hpp):
//
//   1. analyze_existence decides whether a *robustly* deadlock-free
//      (acyclic-CDG) routing exists, with a witness ordering or an
//      obstruction core.
//   2. Under SynthesisGoal::kPreferCyclic the cyclic backtracking search
//      runs first: it enumerates candidate simple paths per pair
//      (shortest-first, optionally seeded with known-good paths) and
//      backtracks over pair -> path assignments while maintaining the
//      routing-function property incrementally. Every complete assignment
//      is checked by core::analyze_algorithm — i.e. by the CDG cycle
//      finder plus the exhaustive deadlock search. A table whose CDG is
//      cyclic but whose cycles are unreachable (the source paper's false
//      resource cycles, verdict kFalseResourceCycle) is the preferred,
//      Schwiebert-style answer: deadlock-free beyond Dally–Seitz reasoning.
//   3. If no verified-cyclic table is found and the existence verdict is
//      kExists, the witness ordering is compiled into a table directly
//      (table_from_order): route every pair along its shortest
//      strictly-rank-increasing path. The resulting CDG is acyclic by
//      construction, so the table is robustly deadlock-free.
//
// Consistency contract (tested in tests/synth/):
//   kExists     => a table is emitted and verifies deadlock-free.
//   kNotExists  => any emitted table is verified-cyclic (synchronous-model
//                  deadlock freedom only — exactly the gap the source paper
//                  lives in); if none is found, synthesis reports failure
//                  with the obstruction certificate.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "routing/table_routing.hpp"
#include "synth/existence.hpp"

namespace wormsim::synth {

enum class SynthesisGoal : std::uint8_t {
  /// Only the ordering-derived acyclic-CDG table (fast, robust).
  kRobustAcyclic,
  /// Search for a verified cyclic-CDG table first; fall back to the
  /// acyclic construction.
  kPreferCyclic,
};

/// What kind of table synthesis produced.
enum class TableKind : std::uint8_t {
  kNone,             ///< no table (obstruction or budgets exhausted)
  kAcyclicCertified, ///< ordering-derived, acyclic CDG (robust)
  kCyclicVerified,   ///< cyclic CDG, deadlock search verified unreachable
};

struct SynthesisOptions {
  SynthesisGoal goal = SynthesisGoal::kPreferCyclic;
  ExistenceOptions existence;
  /// Complete assignments the cyclic search may hand to the verifier
  /// (each verification runs the CDG builder and, for cyclic CDGs, the
  /// exhaustive deadlock search).
  std::uint64_t max_assignments = 64;
  /// Known-good routes tried first by the cyclic search (e.g. the source
  /// paper's Figure-1 table). Pairs they belong to are matched by
  /// endpoints; unknown pairs are ignored.
  std::vector<routing::PathSpec> seed_paths;
};

struct SynthesisResult {
  ExistenceCertificate existence;
  TableKind kind = TableKind::kNone;
  /// The synthesized table (kind != kNone). Owns only the table; the
  /// network passed to synthesize() must outlive it.
  std::unique_ptr<routing::PathTable> table;
  /// Verification verdict of `table` (kAcyclicCdg or kFalseResourceCycle
  /// when kind != kNone).
  core::CycleVerdict verdict = core::CycleVerdict::kInconclusive;
  bool cdg_cyclic = false;
  /// Complete assignments the cyclic search verified (0 when skipped).
  std::uint64_t assignments_tried = 0;
  /// One-line human-readable outcome.
  std::string note;
};

/// Synthesizes a deadlock-free oblivious table for `pairs` on `net`.
/// Deterministic for fixed inputs and options.
[[nodiscard]] SynthesisResult synthesize(const topo::Network& net,
                                         std::span<const NodePair> pairs,
                                         const SynthesisOptions& options = {});

/// Compiles a verified witness ordering into a routing table: each pair is
/// routed along its shortest strictly-rank-increasing path (ties broken by
/// channel id, so the table is deterministic). Preconditions:
/// verify_order(net, pairs, order). The result's CDG is acyclic.
[[nodiscard]] std::unique_ptr<routing::PathTable> table_from_order(
    const topo::Network& net, std::span<const NodePair> pairs,
    std::span<const std::uint32_t> order);

/// Candidate simple channel paths from pair.src to pair.dst: length at most
/// shortest + max_slack, at most max_paths kept, ordered by (length,
/// lexicographic channel ids). Exposed for the certificate tests, which
/// enumerate every candidate table of a gadget network.
[[nodiscard]] std::vector<std::vector<ChannelId>> enumerate_paths(
    const topo::Network& net, NodePair pair, std::size_t max_paths,
    std::size_t max_slack);

/// Drives one simulator run with one message per pair (all injected at
/// cycle 0, modest lengths) and reports whether every message was consumed.
/// Used by tests and the CLI as the "table actually runs" smoke check.
[[nodiscard]] bool simulate_clean(const routing::RoutingAlgorithm& alg,
                                  std::span<const NodePair> pairs,
                                  std::uint32_t length = 4,
                                  std::uint64_t max_cycles = 200'000);

const char* to_string(SynthesisGoal goal);
const char* to_string(TableKind kind);

}  // namespace wormsim::synth
