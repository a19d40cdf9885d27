// Theorem-5 soundness sweep: across a systematic slice of the
// three-sharing-message parameter space, whenever the eight-condition
// evaluator says "all conditions hold" the exhaustive probe must confirm
// the ring is unreachable. (The necessity direction is geometry-sensitive
// — see DESIGN.md §6 — and is pinned case-by-case by the Figure-3 tests.)
#include <gtest/gtest.h>

#include "core/analyzer.hpp"
#include "core/theorems.hpp"

namespace wormsim::core {
namespace {

struct SweepPoint {
  int hA, hB, hC;
};

class Theorem5Sweep : public ::testing::TestWithParam<SweepPoint> {};

TEST_P(Theorem5Sweep, CheckerUnreachableImpliesSearchUnreachable) {
  const auto [hA, hB, hC] = GetParam();
  CyclicFamilySpec spec;
  spec.name = "sweep";
  // Ring order A, C, B with accesses 4 > 3 > 2.
  spec.messages = {{4, hA, true}, {2, hC, true}, {3, hB, true}};
  const CyclicFamily family(spec);

  const auto report = evaluate_theorem5(family.spec());
  ASSERT_TRUE(report.applicable);

  analysis::SearchLimits limits;
  limits.max_states = 3'000'000;
  const auto probe = probe_family_deadlock(family, limits);
  ASSERT_TRUE(probe.exhausted);

  if (report.all_hold()) {
    EXPECT_FALSE(probe.deadlock_found)
        << "soundness violated at hA=" << hA << " hB=" << hB << " hC=" << hC
        << ": " << report.describe();
  }
  // Empirical reachability law for this geometry (DESIGN.md §6): deadlock
  // iff B's segment is shorter than its access AND C's is longer than its
  // access.
  const bool law = hB < 3 && hC > 2;
  EXPECT_EQ(probe.deadlock_found, law)
      << "reachability law broken at hA=" << hA << " hB=" << hB
      << " hC=" << hC;
}

std::vector<SweepPoint> sweep_points() {
  std::vector<SweepPoint> points;
  for (const int hA : {2, 4, 6})
    for (const int hB : {2, 3, 5})
      for (const int hC : {2, 3, 5}) points.push_back({hA, hB, hC});
  return points;
}

INSTANTIATE_TEST_SUITE_P(Grid, Theorem5Sweep,
                         ::testing::ValuesIn(sweep_points()),
                         [](const auto& param_info) {
                           const auto& p = param_info.param;
                           return "hA" + std::to_string(p.hA) + "_hB" +
                                  std::to_string(p.hB) + "_hC" +
                                  std::to_string(p.hC);
                         });

}  // namespace
}  // namespace wormsim::core
