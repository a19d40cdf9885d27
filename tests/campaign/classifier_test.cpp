// Classifier rule boundaries: each of the paper's results must fire exactly
// on its validated domain and nowhere else. The scope edges here are the
// ones the campaign itself calibrated — Theorem 4's distinct-access side
// condition and Theorem 5's 3-message-ring restriction — so these tests are
// the regression net for that calibration.
#include "campaign/classifier.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/cyclic_family.hpp"

namespace wormsim::campaign {
namespace {

Scenario family_scenario(std::vector<core::CyclicMessageParams> messages,
                         bool hub = false) {
  Scenario s;
  s.kind = ScenarioKind::kFamily;
  s.family.name = "test";
  s.family.hub_completion = hub;
  s.family.messages = std::move(messages);
  return s;
}

Classification classify_family(const Scenario& s) {
  return classify(s, materialize(s));
}

TEST(Classifier, ZeroOrOneSharerIsTheorem2Reachable) {
  const auto none =
      classify_family(family_scenario({{1, 2, false}, {2, 3, false}}));
  EXPECT_EQ(none.prediction, Prediction::kDeadlockReachable);
  EXPECT_EQ(none.rule, "theorem2");

  const auto one =
      classify_family(family_scenario({{2, 2, true}, {1, 3, false}}));
  EXPECT_EQ(one.prediction, Prediction::kDeadlockReachable);
  EXPECT_EQ(one.rule, "theorem2");
}

TEST(Classifier, TwoSharersDistinctAccessIsTheorem4) {
  const auto c =
      classify_family(family_scenario({{2, 3, true}, {3, 2, true}}));
  EXPECT_EQ(c.prediction, Prediction::kDeadlockReachable);
  EXPECT_EQ(c.rule, "theorem4");
}

TEST(Classifier, TwoEqualAccessSharersAreOutOfScope) {
  // Campaign calibration: equal-access pairs can be genuinely unreachable
  // (the proof's injection order needs a longer-access message), so the
  // classifier must not claim them.
  const auto c =
      classify_family(family_scenario({{2, 3, true}, {2, 3, true}}));
  EXPECT_EQ(c.prediction, Prediction::kOutOfScope);
  EXPECT_EQ(c.rule, "theorem4-equal-access");
}

TEST(Classifier, ThreeSharerAllHoldRingIsTheorem5Unreachable) {
  // Ring order A(4), C(2), B(3) with long holds: all eight conditions hold.
  const auto c = classify_family(
      family_scenario({{4, 5, true}, {2, 3, true}, {3, 4, true}}));
  EXPECT_EQ(c.prediction, Prediction::kUnreachableCycle);
  EXPECT_EQ(c.rule, "theorem5");
}

TEST(Classifier, ThreeSharerViolatedConditionIsOpenNotPredicted) {
  // hA == aA violates condition 4; necessity is geometry-sensitive, so the
  // classifier abstains rather than predicting reachability.
  const auto c = classify_family(
      family_scenario({{4, 4, true}, {2, 3, true}, {3, 4, true}}));
  EXPECT_EQ(c.prediction, Prediction::kOutOfScope);
  EXPECT_EQ(c.rule, "theorem5-open");
}

TEST(Classifier, InterposedNonSharerKeepsTheorem5Open) {
  // The campaign's shrunk reproducer (fixture theorem5_interposed): passes
  // all eight conditions yet deadlocks, because the reconstruction is only
  // validated for 3-message rings. Must stay out of scope.
  const auto c = classify_family(family_scenario(
      {{4, 5, true}, {2, 3, true}, {1, 1, false}, {3, 4, true}}));
  EXPECT_EQ(c.prediction, Prediction::kOutOfScope);
  EXPECT_EQ(c.rule, "theorem5-open");
}

TEST(Classifier, FourPlusSharersAreOpenUnlessSection6) {
  const auto c = classify_family(family_scenario(
      {{2, 3, true}, {3, 2, true}, {4, 2, true}, {2, 4, true}}));
  EXPECT_EQ(c.prediction, Prediction::kOutOfScope);
  EXPECT_EQ(c.rule, "theorem1-open");
}

TEST(Classifier, Section6InstancesAreUnreachable) {
  for (int k = 1; k <= 3; ++k) {
    Scenario s;
    s.kind = ScenarioKind::kFamily;
    s.family = core::generalized_spec(k);
    const auto c = classify_family(s);
    EXPECT_EQ(c.prediction, Prediction::kUnreachableCycle) << k;
    EXPECT_EQ(c.rule, "section6") << k;
  }
}

TEST(Section6Shape, DetectsExactGeneralizedInstances) {
  EXPECT_EQ(section6_shape_k(core::generalized_spec(1)), 1);
  EXPECT_EQ(section6_shape_k(core::generalized_spec(2)), 2);

  // Perturbations must not match.
  auto spec = core::generalized_spec(1);
  spec.messages[1].hold += 1;
  EXPECT_EQ(section6_shape_k(spec), 0);

  spec = core::generalized_spec(1);
  spec.messages[2].uses_shared = false;
  EXPECT_EQ(section6_shape_k(spec), 0);

  spec = core::generalized_spec(1);
  spec.messages.pop_back();
  EXPECT_EQ(section6_shape_k(spec), 0);
}

TEST(Classifier, AcyclicRandomAlgorithmIsDallySeitz) {
  Scenario s;
  s.kind = ScenarioKind::kRandomAlgorithm;
  s.seed = 4;
  s.topology = TopologyKind::kMesh;
  s.dims = {4};  // 1-D line, minimal routing: monotone, acyclic CDG
  s.flavor = RoutingFlavor::kRandomMinimal;
  const MaterializedScenario live = materialize(s);
  ASSERT_TRUE(live.graph->acyclic());
  const auto c = classify(s, live);
  EXPECT_EQ(c.prediction, Prediction::kDeadlockFree);
  EXPECT_EQ(c.rule, "dally-seitz");
  EXPECT_FALSE(c.cdg_cyclic);
}

TEST(Classifier, CyclicRandomAlgorithmIsCorollary1) {
  Scenario s;
  s.kind = ScenarioKind::kRandomAlgorithm;
  s.seed = 8;
  s.topology = TopologyKind::kUniRing;
  s.nodes = 4;  // total routing on a unidirectional ring closes the CDG ring
  s.flavor = RoutingFlavor::kRandomTree;
  const MaterializedScenario live = materialize(s);
  ASSERT_FALSE(live.graph->acyclic());
  const auto c = classify(s, live);
  EXPECT_EQ(c.prediction, Prediction::kDeadlockReachable);
  EXPECT_EQ(c.rule, "corollary1");
  EXPECT_TRUE(c.cdg_cyclic);

  s.flavor = RoutingFlavor::kRandomMinimal;
  const auto minimal = classify(s, materialize(s));
  EXPECT_EQ(minimal.rule, "corollary1-minimal");
}

TEST(Classifier, FamiliesClassifyFromTheirSpecAlone) {
  // The campaign classifies a family before (and usually instead of)
  // building it; the verdict must be the one the built instance gets.
  std::map<std::string, int> rules;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const ScenarioGenerator gen(seed);
    int families = 0;
    for (std::uint64_t i = 0; families < 2'000; ++i) {
      const Scenario s = gen.generate(i);
      if (s.kind != ScenarioKind::kFamily) continue;
      ++families;
      const Classification spec_only = classify(s, MaterializedScenario{});
      const Classification built = classify(s, materialize(s));
      ASSERT_EQ(spec_only.prediction, built.prediction) << s.describe();
      ASSERT_EQ(spec_only.rule, built.rule) << s.describe();
      ASSERT_EQ(spec_only.detail, built.detail) << s.describe();
      ASSERT_EQ(spec_only.cdg_cyclic, built.cdg_cyclic) << s.describe();
      ++rules[spec_only.rule];
    }
  }
  // The sample covers the Section-6 shapes and the Figure-3 shape that
  // Theorem 5 predicts, not only the uniform rings.
  EXPECT_GT(rules["section6"], 0);
  EXPECT_GT(rules["theorem5"], 0);
  EXPECT_GT(rules["theorem4"], 0);
}

TEST(ClassifierDeathTest, UnbuildableFamilySpecStillAborts) {
  // A 2-message ring with a unit segment is rejected by the builders; the
  // spec-only path must refuse it as materialize() does.
  const Scenario s = family_scenario({{2, 1, true}, {3, 2, true}});
  ASSERT_FALSE(family_spec_buildable(s.family));
  EXPECT_DEATH((void)classify(s, MaterializedScenario{}),
               "unbuildable family spec");
}

}  // namespace
}  // namespace wormsim::campaign
