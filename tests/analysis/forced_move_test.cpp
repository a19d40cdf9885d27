// The explored search tree, pinned.
//
// The synchronous search steps a forced state (one legal assignment) in
// place, with no generator or DFS frame, and its replay re-derives those
// steps (DESIGN.md §9, "Forced-move fast path"). That must change nothing
// but speed, so the values below were recorded from the engine that built
// a frame for every state. At threads=1 they pin the explored tree on the
// paper's instances: unique states (= memo misses), memo hits, the deepest
// opened state, and the branch-factor histogram's count and sum (a forced
// state observes 1). They also pin the witness text in both adversary
// models, and require threads=4 to return the same verdict, state count,
// witness and branch histogram.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/deadlock_search.hpp"
#include "core/cyclic_family.hpp"
#include "core/paper_networks.hpp"

namespace wormsim::analysis {
namespace {

struct Tree {
  std::uint64_t states, hits, peak, count;
  double sum;
};

struct Case {
  const char* name;
  core::CyclicFamilySpec spec;
  int copies;  ///< the family's message multiset, repeated
  AdversaryModel model;
  ReductionMode reduction;
  Tree tree;
  bool deadlock;
  std::size_t witness_steps;  ///< 0 when there is no deadlock
};

/// Bounded-delay cases use budget 2 on the total metric.
std::vector<Case> cases() {
  using core::Fig3Variant;
  constexpr auto kSync = AdversaryModel::kSynchronous;
  constexpr auto kDelay = AdversaryModel::kBoundedDelay;
  constexpr auto kSafe = ReductionMode::kSafe;
  return {
      {"fig1", core::fig1_spec(), 1, kSync, kSafe,
       {1140, 450, 30, 1139, 1589}, false, 0},
      {"fig1-delay2", core::fig1_spec(), 1, kDelay, kSafe,
       {3420, 2012, 32, 3404, 8001}, true, 19},
      {"fig2", core::fig2_spec(), 1, kSync, kSafe, {23, 0, 19, 21, 24}, true,
       10},
      {"fig2-delay2", core::fig2_spec(), 1, kDelay, kSafe,
       {39, 6, 21, 35, 58}, true, 10},
      {"fig3a", core::fig3_spec(Fig3Variant::kA), 1, kSync, kSafe,
       {478, 127, 36, 477, 604}, false, 0},
      {"fig3a-delay2", core::fig3_spec(Fig3Variant::kA), 1, kDelay, kSafe,
       {954, 418, 38, 943, 1884}, true, 19},
      {"fig3b", core::fig3_spec(Fig3Variant::kB), 1, kSync, kSafe,
       {368, 117, 28, 367, 484}, false, 0},
      {"fig3b-delay2", core::fig3_spec(Fig3Variant::kB), 1, kDelay, kSafe,
       {714, 340, 30, 703, 1468}, true, 15},
      {"sec6-k2", core::generalized_spec(2), 1, kSync, kSafe,
       {1996, 650, 39, 1995, 2645}, false, 0},
      {"sec6-k2-delay2", core::generalized_spec(2), 1, kDelay, kSafe,
       {21340, 13812, 41, 21325, 52619}, false, 0},
      {"fig1x2", core::fig1_spec(), 2, kSync, kSafe,
       {12687, 6686, 45, 12686, 19372}, false, 0},
      {"fig1x2-off", core::fig1_spec(), 2, kSync, ReductionMode::kOff,
       {86016, 51328, 48, 86015, 137343}, false, 0},
  };
}

DeadlockSearchResult search(const Case& c, unsigned threads) {
  const core::CyclicFamily family(c.spec);
  const auto base = family.message_specs();
  std::vector<sim::MessageSpec> specs;
  for (int i = 0; i < c.copies; ++i)
    specs.insert(specs.end(), base.begin(), base.end());
  SearchLimits limits;
  limits.threads = threads;
  limits.reduction = c.reduction;
  limits.delay_budget = 2;
  limits.metric = DelayMetric::kTotal;
  return find_deadlock(family.algorithm(), specs, c.model, limits);
}

const Case& find_case(const std::string& name) {
  static const std::vector<Case> all = cases();
  for (const Case& c : all)
    if (name == c.name) return c;
  ADD_FAILURE() << "no case " << name;
  return all.front();
}

TEST(ForcedMove, ExploredTreesArePinned) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const DeadlockSearchResult r = search(c, 1);
    const SearchProfile& p = r.profile;
    EXPECT_EQ(r.deadlock_found, c.deadlock);
    EXPECT_TRUE(r.exhausted);
    EXPECT_EQ(r.states_explored, c.tree.states);
    EXPECT_EQ(p.memo_misses, c.tree.states);
    EXPECT_EQ(p.memo_hits, c.tree.hits);
    EXPECT_EQ(p.peak_depth, c.tree.peak);
    EXPECT_EQ(p.branch_factor.count(), c.tree.count);
    EXPECT_EQ(p.branch_factor.sum(), c.tree.sum);
    EXPECT_EQ(r.witness.size(), c.witness_steps);
    EXPECT_EQ(r.witness_grants.size(), c.witness_steps);
  }
}

/// Figure 2's deadlock needs no stall, so both models find the same
/// ten-cycle witness.
TEST(ForcedMove, Figure2WitnessIsUnchangedInBothModels) {
  const std::vector<std::string> expected = {
      "grant c_s -> m1",
      "grant N*->a2_0 -> m1",
      "grant a2_0->P2 -> m1",
      "grant P2->D1 -> m1",
      "grant D1->P2x1 -> m1",
      "grant c_s -> m0; grant P2x1->P2x2 -> m1",
      "grant N*->P1 -> m0; grant P2x2->P1 -> m1",
      "grant P1->D2 -> m0",
      "grant D2->P1x1 -> m0",
      "grant P1x1->P2 -> m0",
  };
  EXPECT_EQ(search(find_case("fig2"), 1).witness, expected);
  EXPECT_EQ(search(find_case("fig2-delay2"), 1).witness, expected);
}

TEST(ForcedMove, DelayModelWitnessesAreUnchanged) {
  const std::vector<std::string> fig1 = {
      "grant c_s -> m3",
      "grant N*->a4_0 -> m3",
      "grant a4_0->P4 -> m3",
      "grant P4->D3 -> m3",
      "grant D3->P4x1 -> m3",
      "grant c_s -> m0; grant P4x1->P4x2 -> m3",
      "grant N*->P1 -> m0; grant P4x2->P1 -> m3",
      "grant P1->D4 -> m0",
      "grant D4->P1x1 -> m0",
      "grant P1x1->P2 -> m0; grant c_s -> m1",
      "grant N*->a2_0 -> m1; stall m0",
      "grant a2_0->P2 -> m1; stall m0",
      "grant P2->D1 -> m1",
      "grant D1->P2x1 -> m1",
      "grant P2x1->P2x2 -> m1; grant c_s -> m2",
      "grant P2x2->P3 -> m1; grant N*->P3 -> m2",
      "grant P3->D2 -> m2",
      "grant D2->P3x1 -> m2",
      "grant P3x1->P4 -> m2",
  };
  const std::vector<std::string> fig3a = {
      "grant c_s -> m2",
      "grant N*->a3_0 -> m2",
      "grant a3_0->P3 -> m2",
      "grant P3->D2 -> m2",
      "grant D2->P3x1 -> m2",
      "grant P3x1->P3x2 -> m2",
      "grant c_s -> m0; grant P3x2->P3x3 -> m2",
      "grant N*->a1_0 -> m0; grant P3x3->P1 -> m2",
      "grant a1_0->a1_1 -> m0; stall m2",
      "grant a1_1->P1 -> m0; stall m2",
      "grant P1->D3 -> m0",
      "grant D3->P1x1 -> m0",
      "grant P1x1->P1x2 -> m0; grant c_s -> m1",
      "grant P1x2->P1x3 -> m0; grant N*->P2 -> m1",
      "grant P1x3->P2 -> m0; grant P2->D1 -> m1",
      "grant D1->P2x1 -> m1",
      "grant P2x1->P2x2 -> m1",
      "grant P2x2->P2x3 -> m1",
      "grant P2x3->P3 -> m1",
  };
  const std::vector<std::string> fig3b = {
      "grant c_s -> m2",
      "grant N*->a3_0 -> m2",
      "grant a3_0->P3 -> m2",
      "grant P3->D2 -> m2",
      "grant c_s -> m0; grant D2->P3x1 -> m2",
      "grant N*->a1_0 -> m0; grant P3x1->P1 -> m2",
      "grant a1_0->a1_1 -> m0; stall m2",
      "grant a1_1->P1 -> m0; stall m2",
      "grant P1->D3 -> m0",
      "grant D3->P1x1 -> m0",
      "grant P1x1->P1x2 -> m0; grant c_s -> m1",
      "grant P1x2->P1x3 -> m0; grant N*->P2 -> m1",
      "grant P1x3->P2 -> m0; grant P2->D1 -> m1",
      "grant D1->P2x1 -> m1",
      "grant P2x1->P3 -> m1",
  };
  EXPECT_EQ(search(find_case("fig1-delay2"), 1).witness, fig1);
  EXPECT_EQ(search(find_case("fig3a-delay2"), 1).witness, fig3a);
  EXPECT_EQ(search(find_case("fig3b-delay2"), 1).witness, fig3b);
}

/// Four workers split frames into work items that carry their tree depth
/// and branching path only; the result must not depend on it.
TEST(ForcedMove, FourThreadsMatchOneThread) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const DeadlockSearchResult serial = search(c, 1);
    const DeadlockSearchResult parallel = search(c, 4);
    EXPECT_EQ(parallel.deadlock_found, serial.deadlock_found);
    EXPECT_EQ(parallel.exhausted, serial.exhausted);
    EXPECT_EQ(parallel.states_explored, serial.states_explored);
    EXPECT_EQ(parallel.witness, serial.witness);
    EXPECT_EQ(parallel.witness_grants, serial.witness_grants);
    EXPECT_EQ(parallel.profile.branch_factor.count(),
              serial.profile.branch_factor.count());
    EXPECT_EQ(parallel.profile.branch_factor.sum(),
              serial.profile.branch_factor.sum());
    EXPECT_EQ(parallel.profile.branch_factor.counts(),
              serial.profile.branch_factor.counts());
  }
}

}  // namespace
}  // namespace wormsim::analysis
