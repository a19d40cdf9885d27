// Figure 3 / Theorem 5: six rings whose shared channel is used by exactly
// three messages. (a) and (b) satisfy all eight conditions and are false
// resource cycles; (c)-(f) each violate exactly one condition and deadlock.
// Every verdict is decided by the exhaustive reachability probe and
// cross-checked against the Theorem-5 condition evaluator.
#include <gtest/gtest.h>

#include "core/analyzer.hpp"
#include "core/paper_networks.hpp"
#include "core/theorems.hpp"

namespace wormsim::core {
namespace {

class Fig3Test : public ::testing::TestWithParam<Fig3Variant> {};

TEST_P(Fig3Test, SearchVerdictMatchesPaper) {
  const CyclicFamily family(fig3_spec(GetParam()));
  const auto probe = probe_family_deadlock(family);
  EXPECT_TRUE(probe.exhausted);
  EXPECT_EQ(!probe.deadlock_found, fig3_expected_unreachable(GetParam()))
      << "variant " << fig3_name(GetParam());
}

TEST_P(Fig3Test, CheckerMatchesPaperVerdict) {
  const CyclicFamily family(fig3_spec(GetParam()));
  const auto report = evaluate_theorem5(family.spec());
  ASSERT_TRUE(report.applicable);
  EXPECT_EQ(report.all_hold(), fig3_expected_unreachable(GetParam()))
      << report.describe();
}

TEST_P(Fig3Test, ExactlyTheCaptionedConditionIsViolated) {
  const CyclicFamily family(fig3_spec(GetParam()));
  const auto report = evaluate_theorem5(family.spec());
  ASSERT_TRUE(report.applicable);
  const int expected = fig3_violated_condition(GetParam());
  for (int c = 1; c <= 8; ++c) {
    EXPECT_EQ(report.conditions[static_cast<std::size_t>(c - 1)],
              c != expected)
        << "condition " << c << " in variant " << fig3_name(GetParam());
  }
}

TEST_P(Fig3Test, CdgHasOneRingCycle) {
  const CyclicFamily family(fig3_spec(GetParam()));
  const auto graph = cdg::ChannelDependencyGraph::build(family.algorithm());
  EXPECT_EQ(graph.cyclic_sccs().size(), 1u);
  EXPECT_EQ(graph.elementary_cycles().size(), 1u);
}

TEST_P(Fig3Test, DeadlockWitnessIsLegalConfiguration) {
  if (fig3_expected_unreachable(GetParam())) GTEST_SKIP();
  const CyclicFamily family(fig3_spec(GetParam()));
  const auto probe = probe_family_deadlock(family);
  ASSERT_TRUE(probe.deadlock_found);
  EXPECT_TRUE(analysis::is_deadlock_shaped(
      probe.search.deadlock_configuration, family.algorithm()));
  EXPECT_TRUE(analysis::check_legal(probe.search.deadlock_configuration,
                                    family.algorithm(), 1)
                  .legal);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, Fig3Test,
                         ::testing::Values(Fig3Variant::kA, Fig3Variant::kB,
                                           Fig3Variant::kC, Fig3Variant::kD,
                                           Fig3Variant::kE, Fig3Variant::kF),
                         [](const auto& param_info) {
                           return std::string(fig3_name(param_info.param));
                         });

TEST(Fig3Necessity, OnlyTwoSharersMeansTheoremFourTakesOver) {
  // Theorem 5's opening: with fewer than three sharers the cycle deadlocks
  // (Theorem 4). The fig3(a) geometry with B made non-sharing deadlocks.
  CyclicFamilySpec spec = fig3_spec(Fig3Variant::kA);
  spec.messages[2].uses_shared = false;
  spec.messages[2].access = 1;
  const CyclicFamily family(spec);
  const auto probe = probe_family_deadlock(family);
  EXPECT_TRUE(probe.deadlock_found);
}

}  // namespace
}  // namespace wormsim::core
