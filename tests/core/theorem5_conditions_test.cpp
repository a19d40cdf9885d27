// Negative-path isolation for the Theorem-5 checker: starting from a
// 3-message ring where all eight conditions hold, violating one condition at
// a time must flip that condition — and hence the all_hold() verdict — while
// the untouched conditions stay true. This pins each condition to the
// parameter it actually measures; a refactor that accidentally couples two
// conditions (or inverts one) fails here even if the all-hold sweep still
// passes.
//
// Base instance: ring order A, C, B with accesses 4 > 3 > 2 and holds
// hA=5, hC=3, hB=4. Conditions 2 (access arms off-ring), 5 (the sharer
// preceding C) and 8 (aC < aA) are structural in an all-sharing 3-ring and
// cannot be violated in isolation there; the interposed-non-sharer campaign
// fixture (tests/campaign) covers the geometry where they bind.
#include "core/theorems.hpp"

#include <gtest/gtest.h>

#include "core/cyclic_family.hpp"

namespace wormsim::core {
namespace {

CyclicFamilySpec base_spec() {
  CyclicFamilySpec spec;
  spec.name = "t5-base";
  // Ring order A(4,5), C(2,3), B(3,4).
  spec.messages = {{4, 5, true}, {2, 3, true}, {3, 4, true}};
  return spec;
}

Theorem5Report evaluate(const CyclicFamilySpec& spec) {
  const CyclicFamily family(spec);
  return evaluate_theorem5(family.spec());
}

TEST(Theorem5Conditions, BaseInstanceSatisfiesAllEight) {
  const auto report = evaluate(base_spec());
  ASSERT_TRUE(report.applicable);
  for (std::size_t i = 0; i < report.conditions.size(); ++i)
    EXPECT_TRUE(report.conditions[i]) << "condition " << (i + 1);
  EXPECT_TRUE(report.all_hold());
}

TEST(Theorem5Conditions, RingOrderViolationFlipsCondition1) {
  // Swap C and B: ring order becomes A, B, C.
  CyclicFamilySpec spec = base_spec();
  std::swap(spec.messages[1], spec.messages[2]);
  const auto report = evaluate(spec);
  ASSERT_TRUE(report.applicable);
  EXPECT_FALSE(report.conditions[0]);
  EXPECT_FALSE(report.all_hold());
}

TEST(Theorem5Conditions, EqualAccessesFlipCondition3) {
  CyclicFamilySpec spec = base_spec();
  spec.messages[1].access = 3;  // aC == aB
  const auto report = evaluate(spec);
  ASSERT_TRUE(report.applicable);
  EXPECT_FALSE(report.conditions[2]);
  EXPECT_FALSE(report.all_hold());
}

TEST(Theorem5Conditions, ShortHoldOnAFlipsCondition4Only) {
  CyclicFamilySpec spec = base_spec();
  spec.messages[0].hold = 4;  // hA == aA
  const auto report = evaluate(spec);
  ASSERT_TRUE(report.applicable);
  EXPECT_FALSE(report.conditions[3]);
  EXPECT_FALSE(report.all_hold());
  // Isolation: every other condition is untouched.
  for (const std::size_t i : {0u, 1u, 2u, 4u, 5u, 6u, 7u})
    EXPECT_TRUE(report.conditions[i]) << "condition " << (i + 1);
}

TEST(Theorem5Conditions, ShortHoldOnBFlipsCondition6Only) {
  // hB == aB kills the first disjunct; raising hC to 4 makes C's total path
  // (aC + hC = 6) no shorter than B's (aB + hB = 6), killing the second.
  CyclicFamilySpec spec = base_spec();
  spec.messages[2].hold = 3;
  spec.messages[1].hold = 4;
  const auto report = evaluate(spec);
  ASSERT_TRUE(report.applicable);
  EXPECT_FALSE(report.conditions[5]);
  EXPECT_FALSE(report.all_hold());
  for (const std::size_t i : {0u, 1u, 2u, 3u, 4u, 6u, 7u})
    EXPECT_TRUE(report.conditions[i]) << "condition " << (i + 1);
}

TEST(Theorem5Conditions, ShortHoldOnCFlipsCondition7Only) {
  CyclicFamilySpec spec = base_spec();
  spec.messages[1].hold = 2;  // aA + 0 < hC + aC becomes 4 < 4
  const auto report = evaluate(spec);
  ASSERT_TRUE(report.applicable);
  EXPECT_FALSE(report.conditions[6]);
  EXPECT_FALSE(report.all_hold());
  for (const std::size_t i : {0u, 1u, 2u, 3u, 4u, 5u, 7u})
    EXPECT_TRUE(report.conditions[i]) << "condition " << (i + 1);
}

TEST(Theorem5Conditions, TwoOrFourSharersAreNotApplicable) {
  CyclicFamilySpec spec = base_spec();
  spec.messages[1].uses_shared = false;
  EXPECT_FALSE(evaluate(spec).applicable);
  EXPECT_FALSE(evaluate(spec).all_hold());  // verdict defaults to reachable

  spec = base_spec();
  spec.messages.push_back({2, 2, true});
  EXPECT_FALSE(evaluate(spec).applicable);
}

}  // namespace
}  // namespace wormsim::core
