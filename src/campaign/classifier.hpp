// Structural classification of campaign scenarios against the paper's
// results (Theorems 1–5, Corollaries 1–3, Dally–Seitz).
//
// The classifier only predicts where the paper (as validated by this repo's
// theorem checkers and property tests) actually proves something; everything
// else is kOutOfScope and the campaign records it as a skip rather than
// guessing. The scope boundaries are themselves empirically calibrated
// against the exhaustive search — notably, Theorem 4's "two sharers always
// deadlock" requires the two access lengths to differ (the proof injects the
// longer-access message first; with equal accesses the search finds genuinely
// unreachable instances), and Theorem 5's eight-condition characterization is
// only applied in the validated sufficiency direction (all conditions hold ⇒
// unreachable).
#pragma once

#include <string>

#include "campaign/scenario.hpp"

namespace wormsim::campaign {

enum class Prediction : std::uint8_t {
  kDeadlockReachable,  ///< a deadlock configuration is reachable
  kUnreachableCycle,   ///< cyclic CDG but no reachable deadlock
  kDeadlockFree,       ///< acyclic CDG: Dally–Seitz freedom
  kOutOfScope,         ///< no applicable validated result
};

struct Classification {
  Prediction prediction = Prediction::kOutOfScope;
  /// The governing result: "theorem2", "theorem4", "theorem5", "section6",
  /// "corollary1", "corollary1-minimal", "dally-seitz"; out-of-scope rules
  /// name the open region ("theorem5-open", "theorem4-equal-access",
  /// "theorem1-open").
  std::string rule;
  /// Human-readable rationale (e.g. the Theorem5Report condition vector).
  std::string detail;
  /// Random-algorithm scenarios: whether the built CDG has a cycle.
  bool cdg_cyclic = false;
};

/// If `spec` is an exact Section-6 generalized instance (k >= 1; k = 1 is
/// Figure 1), returns k; otherwise 0.
[[nodiscard]] int section6_shape_k(const core::CyclicFamilySpec& spec);

/// Classifies a scenario. Pure function of the scenario structure; never
/// runs the reachability search. A family scenario is classified from its
/// spec, so `live` may be empty for one (an unbuildable spec still aborts);
/// random and synthesized scenarios read the CDG or the existence
/// certificate in `live`, which must come from materialize(scenario).
[[nodiscard]] Classification classify(const Scenario& scenario,
                                      const MaterializedScenario& live);

const char* to_string(Prediction prediction);

}  // namespace wormsim::campaign
