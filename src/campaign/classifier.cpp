#include "campaign/classifier.hpp"

#include <sstream>

#include "core/theorems.hpp"

namespace wormsim::campaign {

namespace {

/// Family rings are classified from their spec alone: every rule below
/// reads only each ring message's access, hold and use of c_s, so the
/// network is built only when a search needs it.
Classification family_classification(const Scenario& scenario) {
  WORMSIM_EXPECTS_MSG(family_spec_buildable(scenario.family),
                      "unbuildable family spec");
  Classification c;
  c.cdg_cyclic = true;  // the ring is a CDG cycle by construction

  if (const int k = section6_shape_k(scenario.family); k >= 1) {
    // Theorem 1 / Section 6: the generalized Cyclic Dependency instances
    // are proved deadlock-free under the synchronous model.
    c.prediction = Prediction::kUnreachableCycle;
    c.rule = "section6";
    c.detail = "generalized instance k=" + std::to_string(k);
    return c;
  }

  const int sharers = scenario.sharing_count();
  if (sharers <= 1) {
    // Theorem 2: every channel shared between ring messages lies within
    // the cycle (c_s is used at most once), so the cycle is reachable.
    c.prediction = Prediction::kDeadlockReachable;
    c.rule = "theorem2";
    c.detail = sharers == 0 ? "no message uses c_s" : "single c_s user";
    return c;
  }

  if (sharers == 2) {
    // Theorem 4 — with the empirically required side condition that the two
    // sharers' access lengths differ (the proof's injection order "longer
    // access first" needs a longer one; equal-access instances can be
    // unreachable, see tests/campaign/classifier_test.cpp).
    int first = -1, second = -1;
    for (const auto& p : scenario.family.messages) {
      if (!p.uses_shared) continue;
      (first < 0 ? first : second) = p.access;
    }
    if (first != second) {
      c.prediction = Prediction::kDeadlockReachable;
      c.rule = "theorem4";
      std::ostringstream os;
      os << "two sharers, accesses " << first << " != " << second;
      c.detail = os.str();
    } else {
      c.prediction = Prediction::kOutOfScope;
      c.rule = "theorem4-equal-access";
      c.detail = "two sharers with equal access lengths";
    }
    return c;
  }

  if (sharers == 3) {
    if (scenario.family.messages.size() != 3) {
      // The eight-condition reconstruction is validated (sweep test) only
      // for rings whose three sharers are the whole ring; with interposed
      // non-sharers the search finds reachable instances that pass all
      // conditions (campaign fixture theorem5_interposed), so those stay
      // open rather than predicted.
      c.prediction = Prediction::kOutOfScope;
      c.rule = "theorem5-open";
      c.detail = "interposed non-sharing ring message";
      return c;
    }
    const auto report = core::evaluate_theorem5(scenario.family);
    WORMSIM_ASSERT(report.applicable);
    if (report.all_hold()) {
      // Theorem 5, sufficiency direction (validated by the sweep test):
      // all eight conditions hold => the cycle is unreachable.
      c.prediction = Prediction::kUnreachableCycle;
      c.rule = "theorem5";
    } else {
      // The necessity direction is geometry-sensitive (DESIGN.md §6); a
      // violated condition does not by itself prove reachability.
      c.prediction = Prediction::kOutOfScope;
      c.rule = "theorem5-open";
    }
    c.detail = report.describe();
    return c;
  }

  // Four or more sharers outside the Section-6 shapes: Theorem 1 only
  // covers the exact Figure-1 geometry; random instances here are open.
  c.prediction = Prediction::kOutOfScope;
  c.rule = "theorem1-open";
  c.detail = std::to_string(sharers) + " sharers, non-section6 geometry";
  return c;
}

/// Synthesized-routing scenarios: the "theory" side is the existence
/// analyzer's certificate (src/synth), and the campaign cross-checks it
/// against the search exactly like the paper's theorems. Only the witness
/// direction is predicted: a verified increasing ordering compiles to an
/// acyclic-CDG table, which Dally–Seitz proves deadlock-free. A refusal
/// (obstruction) says no *robust* routing exists but builds no table to
/// search, and a budget exhaustion says nothing — both stay out of scope.
Classification synthesized_classification(const MaterializedScenario& live) {
  WORMSIM_ASSERT(live.certificate != nullptr);
  Classification c;
  switch (live.certificate->verdict) {
    case synth::ExistenceVerdict::kExists:
      WORMSIM_ASSERT(live.graph != nullptr);
      c.cdg_cyclic = !live.graph->acyclic();
      c.prediction = Prediction::kDeadlockFree;
      c.rule = "synth-ordering";
      c.detail = "increasing ordering (" + live.certificate->method +
                 ") compiled to a table";
      return c;
    case synth::ExistenceVerdict::kNotExists:
      c.prediction = Prediction::kOutOfScope;
      c.rule = "synth-obstruction";
      c.detail = "obstruction core of " +
                 std::to_string(live.certificate->obstruction.core.size()) +
                 " pairs";
      return c;
    case synth::ExistenceVerdict::kInconclusive:
      c.prediction = Prediction::kOutOfScope;
      c.rule = "synth-inconclusive";
      c.detail = "existence search budget exhausted";
      return c;
  }
  WORMSIM_UNREACHABLE("bad ExistenceVerdict");
}

}  // namespace

int section6_shape_k(const core::CyclicFamilySpec& spec) {
  if (spec.messages.size() != 4) return 0;
  for (const auto& p : spec.messages)
    if (!p.uses_shared) return 0;
  const auto& m0 = spec.messages[0];
  const auto& m1 = spec.messages[1];
  const int k = m1.access - 2;
  if (k < 1) return 0;
  const auto matches = [](const core::CyclicMessageParams& a,
                          const core::CyclicMessageParams& b) {
    return a.access == b.access && a.hold == b.hold;
  };
  if (m0.access != 2 || m0.hold != 2 + k) return 0;
  if (m1.hold != 2 + 2 * k) return 0;
  if (!matches(spec.messages[2], m0) || !matches(spec.messages[3], m1))
    return 0;
  return k;
}

Classification classify(const Scenario& scenario,
                        const MaterializedScenario& live) {
  if (scenario.kind == ScenarioKind::kFamily)
    return family_classification(scenario);
  if (scenario.kind == ScenarioKind::kSynthesized)
    return synthesized_classification(live);

  WORMSIM_ASSERT(live.graph != nullptr);
  Classification c;
  c.cdg_cyclic = !live.graph->acyclic();
  if (!c.cdg_cyclic) {
    // Dally–Seitz: an acyclic CDG certifies deadlock freedom (the runner
    // re-checks the numbering certificate before trusting this).
    c.prediction = Prediction::kDeadlockFree;
    c.rule = "dally-seitz";
    c.detail = "acyclic CDG";
    return c;
  }
  // Random N x N -> C algorithms are input-channel independent, hence
  // suffix-closed: Corollary 1 (and 2) promise every CDG cycle is a genuine
  // deadlock risk. Minimal instances additionally sit in Theorem 3 /
  // Corollary 1's minimal subclass.
  c.prediction = Prediction::kDeadlockReachable;
  c.rule = scenario.flavor == RoutingFlavor::kRandomMinimal
               ? "corollary1-minimal"
               : "corollary1";
  c.detail = "cyclic CDG of an input-channel-independent algorithm";
  return c;
}

const char* to_string(Prediction prediction) {
  switch (prediction) {
    case Prediction::kDeadlockReachable: return "deadlock-reachable";
    case Prediction::kUnreachableCycle: return "unreachable-cycle";
    case Prediction::kDeadlockFree: return "deadlock-free";
    case Prediction::kOutOfScope: return "out-of-scope";
  }
  WORMSIM_UNREACHABLE("bad Prediction");
}

}  // namespace wormsim::campaign
