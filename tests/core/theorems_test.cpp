#include "core/theorems.hpp"

#include <gtest/gtest.h>

#include "core/paper_networks.hpp"

namespace wormsim::core {
namespace {

TEST(Theorem5Report, NotApplicableWithoutThreeSharers) {
  const CyclicFamily two(fig2_spec());
  const auto report = evaluate_theorem5(two.spec());
  EXPECT_FALSE(report.applicable);
  EXPECT_FALSE(report.all_hold());
  EXPECT_NE(report.describe().find("not applicable"), std::string::npos);
}

TEST(Theorem5Report, FourSharersNotApplicable) {
  const CyclicFamily four(fig1_spec());
  EXPECT_FALSE(evaluate_theorem5(four.spec()).applicable);
}

TEST(Theorem5Report, ConditionOneDetectsOrdering) {
  // Ring order A, B, C (B between A and C) violates condition 1.
  CyclicFamilySpec spec;
  spec.messages = {{4, 5, true}, {3, 5, true}, {2, 5, true}};
  const auto report = evaluate_theorem5(spec);
  ASSERT_TRUE(report.applicable);
  EXPECT_FALSE(report.conditions[0]);
}

TEST(Theorem5Report, ConditionThreeDetectsEqualAccess) {
  CyclicFamilySpec spec;
  spec.messages = {{4, 5, true}, {2, 5, true}, {4, 5, true}};
  const auto report = evaluate_theorem5(spec);
  ASSERT_TRUE(report.applicable);
  EXPECT_FALSE(report.conditions[2]);
}

TEST(Theorem5Report, ConditionFiveTriggersOnNonSharingPredecessor) {
  // Non-sharing message immediately before C, and C's segment not longer
  // than its access: condition 5 fails.
  CyclicFamilySpec spec;
  spec.messages = {
      {4, 5, true}, {1, 3, false}, {2, 2, true}, {3, 5, true}};
  const auto report = evaluate_theorem5(spec);
  ASSERT_TRUE(report.applicable);
  EXPECT_FALSE(report.conditions[4]);
}

TEST(Theorem5Report, ConditionFiveVacuousWhenPredecessorShares) {
  CyclicFamilySpec spec;
  spec.messages = {{4, 5, true}, {2, 2, true}, {3, 5, true}};
  const auto report = evaluate_theorem5(spec);
  ASSERT_TRUE(report.applicable);
  EXPECT_TRUE(report.conditions[4]);
}

TEST(Theorem5Report, BetweenHoldCountsInterposedSegments) {
  // The fig3(f) instance: interposed non-sharing segment of length 2
  // between C and B breaks condition 8 (2 + 2 >= 4).
  const auto report = evaluate_theorem5(fig3_spec(Fig3Variant::kF));
  ASSERT_TRUE(report.applicable);
  EXPECT_FALSE(report.conditions[7]);
  // Without the interposed message, condition 8 holds.
  const auto clean = evaluate_theorem5(fig3_spec(Fig3Variant::kA));
  EXPECT_TRUE(clean.conditions[7]);
}

TEST(Theorem5Report, DescribeNamesEveryCondition) {
  const auto report = evaluate_theorem5(fig3_spec(Fig3Variant::kA));
  const std::string text = report.describe();
  for (int c = 1; c <= 8; ++c)
    EXPECT_NE(text.find("cond" + std::to_string(c)), std::string::npos);
}

TEST(Theorem3, CircularStrictChainIsUnsatisfiable) {
  const int accesses[] = {4, 3, 2};
  EXPECT_TRUE(theorem3_contradiction(accesses));
  EXPECT_FALSE(theorem3_contradiction({}));
}

TEST(Theorem4Applies, ExactlyTwoSharers) {
  CyclicFamilySpec spec;
  spec.messages = {{2, 3, true}, {3, 4, true}, {1, 2, false}};
  EXPECT_TRUE(theorem4_applies(spec));
  spec.messages[2].uses_shared = true;
  spec.messages[2].access = 4;
  EXPECT_FALSE(theorem4_applies(spec));
}

}  // namespace
}  // namespace wormsim::core
