// Profiling and witness-gating behaviour of the reachability search.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/deadlock_search.hpp"
#include "core/cyclic_family.hpp"
#include "routing/node_table.hpp"
#include "topo/builders.hpp"

namespace wormsim::analysis {
namespace {

class ProfiledRingTest : public ::testing::Test {
 protected:
  ProfiledRingTest() : net_(topo::make_unidirectional_ring(4)) {
    table_ = std::make_unique<routing::NodeTable>(net_);
    for (std::size_t s = 0; s < 4; ++s)
      for (std::size_t d = 0; d < 4; ++d)
        if (s != d)
          table_->set(NodeId{s}, NodeId{d},
                      *net_.find_channel(NodeId{s}, NodeId{(s + 1) % 4}));
  }
  std::vector<sim::MessageSpec> ring_messages(std::uint32_t length) const {
    std::vector<sim::MessageSpec> specs;
    for (std::size_t s = 0; s < 4; ++s)
      specs.push_back({NodeId{s}, NodeId{(s + 2) % 4}, length, 0});
    return specs;
  }
  topo::Network net_;
  std::unique_ptr<routing::NodeTable> table_;
};

TEST_F(ProfiledRingTest, MemoCountsAreConsistent) {
  // An exhaustive proof (safe traffic) must revisit states: different grant
  // orders reconverge. Every state-key lookup either misses (a fresh state
  // is explored) or hits; misses are exactly the explored states.
  std::vector<sim::MessageSpec> specs;
  for (std::size_t s = 0; s < 4; ++s)
    specs.push_back({NodeId{s}, NodeId{(s + 1) % 4}, 3, 0});
  const auto result = find_deadlock(*table_, specs,
                                    AdversaryModel::kSynchronous, {});
  ASSERT_TRUE(result.exhausted);
  EXPECT_EQ(result.profile.memo_misses, result.states_explored);
  EXPECT_GT(result.profile.memo_hits, 0u);
  const double rate = result.profile.memo_hit_rate();
  EXPECT_GT(rate, 0.0);
  EXPECT_LT(rate, 1.0);
}

TEST_F(ProfiledRingTest, BranchHistogramCoversExpandedStates) {
  std::vector<sim::MessageSpec> specs;
  for (std::size_t s = 0; s < 4; ++s)
    specs.push_back({NodeId{s}, NodeId{(s + 1) % 4}, 3, 0});
  const auto result = find_deadlock(*table_, specs,
                                    AdversaryModel::kSynchronous, {});
  // Terminal states (consumed / deadlock) are explored but never expanded,
  // so the histogram has at most one entry per explored state.
  EXPECT_GT(result.profile.branch_factor.count(), 0u);
  EXPECT_LE(result.profile.branch_factor.count(), result.states_explored);
  EXPECT_GE(result.profile.branch_factor.max(), 1);
  EXPECT_GT(result.profile.peak_depth, 1u);
  EXPECT_GE(result.profile.elapsed_seconds, 0.0);
}

TEST_F(ProfiledRingTest, TimingNeverQuantizesToZero) {
  // Tiny searches finish in well under a clock millisecond; the profile
  // clamps elapsed time so states_per_second stays finite and nonzero
  // instead of collapsing to 0 (or dividing by 0) on fast hosts.
  std::vector<sim::MessageSpec> specs;
  specs.push_back({NodeId{0}, NodeId{1}, 1, 0});
  const auto result = find_deadlock(*table_, specs,
                                    AdversaryModel::kSynchronous, {});
  ASSERT_TRUE(result.exhausted);
  ASSERT_GT(result.states_explored, 0u);
  EXPECT_GE(result.profile.elapsed_seconds, 1e-9);
  EXPECT_GT(result.profile.states_per_second, 0.0);
  EXPECT_TRUE(std::isfinite(result.profile.states_per_second));
}

TEST_F(ProfiledRingTest, RingDeadlockFoundOnFirstPathReportsZeroHits) {
  // The ring wedges one step from the root: the DFS never backtracks, so
  // a zero memo hit rate is the honest report, and the depth is the
  // length of the witness execution (a single cycle).
  const auto result = find_deadlock(*table_, ring_messages(2),
                                    AdversaryModel::kSynchronous, {});
  ASSERT_TRUE(result.deadlock_found);
  EXPECT_EQ(result.profile.memo_hits, 0u);
  EXPECT_EQ(result.profile.memo_misses, result.states_explored);
  EXPECT_GT(result.profile.branch_factor.count(), 0u);
}

TEST_F(ProfiledRingTest, Figure2SearchReportsNonzeroMemoHitRate) {
  // The acceptance scenario: under the bounded-delay adversary the
  // Figure-2 search backtracks through stall branches and revisits
  // states, so the memo reports hits and the branch histogram is
  // populated.
  const core::CyclicFamily fig2(core::fig2_spec());
  SearchLimits limits;
  limits.delay_budget = 1;
  const auto result =
      find_deadlock(fig2.algorithm(), fig2.message_specs(),
                    AdversaryModel::kBoundedDelay, limits);
  EXPECT_TRUE(result.deadlock_found);
  EXPECT_GT(result.profile.memo_hit_rate(), 0.0);
  EXPECT_GT(result.profile.branch_factor.count(), 0u);
  EXPECT_GT(result.profile.peak_depth, 1u);
}

TEST_F(ProfiledRingTest, WitnessStringsGatedButGrantsAuthoritative) {
  SearchLimits limits;
  limits.build_witness = false;
  const auto result = find_deadlock(*table_, ring_messages(2),
                                    AdversaryModel::kSynchronous, limits);
  ASSERT_TRUE(result.deadlock_found);
  EXPECT_TRUE(result.witness.empty());
  ASSERT_FALSE(result.witness_grants.empty());

  // The grant witness replays to the identical deadlock configuration.
  sim::SimConfig config;
  config.buffer_depth = limits.buffer_depth;
  sim::WormholeSimulator replay(*table_, config);
  for (const auto& spec : ring_messages(2)) replay.add_message(spec);
  for (const auto& grants : result.witness_grants)
    replay.step_with_grants(grants);
  const auto final_config = snapshot(replay);
  ASSERT_EQ(final_config.placements.size(),
            result.deadlock_configuration.placements.size());
  for (std::size_t i = 0; i < final_config.placements.size(); ++i) {
    EXPECT_EQ(final_config.placements[i].occupied,
              result.deadlock_configuration.placements[i].occupied);
  }
}

TEST_F(ProfiledRingTest, WitnessStringsMatchGrantCountWhenEnabled) {
  const auto result = find_deadlock(*table_, ring_messages(2),
                                    AdversaryModel::kSynchronous, {});
  ASSERT_TRUE(result.deadlock_found);
  // Default limits build the strings: one line per replayed cycle.
  EXPECT_EQ(result.witness.size(), result.witness_grants.size());
}

TEST_F(ProfiledRingTest, BudgetPrunesCountedInDelayModel) {
  // Figure 2 under a zero stall budget: the search must consider (and
  // prune) stall branches before the first deadlock path completes.
  const core::CyclicFamily fig2(core::fig2_spec());
  SearchLimits limits;
  limits.delay_budget = 0;
  const auto result =
      find_deadlock(fig2.algorithm(), fig2.message_specs(),
                    AdversaryModel::kBoundedDelay, limits);
  ASSERT_TRUE(result.deadlock_found);
  EXPECT_GT(result.profile.budget_prunes, 0u);
}

TEST_F(ProfiledRingTest, SafeSearchStillProfiled) {
  std::vector<sim::MessageSpec> specs;
  for (std::size_t s = 0; s < 4; ++s)
    specs.push_back({NodeId{s}, NodeId{(s + 1) % 4}, 3, 0});
  const auto result = find_deadlock(*table_, specs,
                                    AdversaryModel::kSynchronous, {});
  EXPECT_FALSE(result.deadlock_found);
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(result.profile.memo_misses, result.states_explored);
  EXPECT_GT(result.profile.branch_factor.count(), 0u);
}

}  // namespace
}  // namespace wormsim::analysis
