#include "analysis/deadlock_search.hpp"

#include <gtest/gtest.h>

#include "core/cyclic_family.hpp"
#include "routing/node_table.hpp"
#include "topo/builders.hpp"

namespace wormsim::analysis {
namespace {

/// Unidirectional ring, the canonical reachable-deadlock substrate.
class SearchRingTest : public ::testing::Test {
 protected:
  SearchRingTest() : net_(topo::make_unidirectional_ring(4)) {
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

TEST_F(SearchRingTest, FindsRingDeadlock) {
  const auto specs = ring_messages(2);
  const auto result = find_deadlock(*table_, specs,
                                    AdversaryModel::kSynchronous, {});
  EXPECT_TRUE(result.deadlock_found);
  EXPECT_EQ(result.deadlock_cycle.size(), 4u);
  EXPECT_FALSE(result.witness.empty());
  // The deadlock state is a legal Definition-6 configuration.
  EXPECT_TRUE(is_deadlock_shaped(result.deadlock_configuration, *table_));
  EXPECT_TRUE(check_legal(result.deadlock_configuration, *table_, 1).legal);
}

TEST_F(SearchRingTest, SingleFlitRingTrafficAlsoDeadlocks) {
  // Single-flit packets wedge the ring too: length is irrelevant to the
  // static circular wait, only to the timing arguments of the paper's
  // figures.
  const auto specs = ring_messages(1);
  const auto result = find_deadlock(*table_, specs,
                                    AdversaryModel::kSynchronous, {});
  EXPECT_TRUE(result.deadlock_found);
}

TEST_F(SearchRingTest, NeighborTrafficProvedSafe) {
  std::vector<sim::MessageSpec> specs;
  for (std::size_t s = 0; s < 4; ++s)
    specs.push_back({NodeId{s}, NodeId{(s + 1) % 4}, 3, 0});
  const auto result = find_deadlock(*table_, specs,
                                    AdversaryModel::kSynchronous, {});
  EXPECT_FALSE(result.deadlock_found);
  EXPECT_TRUE(result.exhausted);  // a proof, not a timeout
}

TEST_F(SearchRingTest, SingleMessageCannotDeadlock) {
  const std::vector<sim::MessageSpec> specs = {
      {NodeId{std::size_t{0}}, NodeId{std::size_t{2}}, 10, 0}};
  const auto result = find_deadlock(*table_, specs,
                                    AdversaryModel::kSynchronous, {});
  EXPECT_FALSE(result.deadlock_found);
  EXPECT_TRUE(result.exhausted);
}

TEST_F(SearchRingTest, StateBoundReportsNonExhaustive) {
  // Safe neighbor traffic with a tiny state bound: the search must stop
  // early and say so.
  std::vector<sim::MessageSpec> specs;
  for (std::size_t s = 0; s < 4; ++s)
    specs.push_back({NodeId{s}, NodeId{(s + 1) % 4}, 3, 0});
  SearchLimits limits;
  limits.max_states = 3;
  const auto result = find_deadlock(*table_, specs,
                                    AdversaryModel::kSynchronous, limits);
  EXPECT_FALSE(result.deadlock_found);
  EXPECT_FALSE(result.exhausted);
}

TEST_F(SearchRingTest, DelayModelSubsumesSynchronous) {
  // Whatever deadlocks synchronously also deadlocks with a zero budget.
  SearchLimits limits;
  limits.delay_budget = 0;
  const auto result = find_deadlock(*table_, ring_messages(2),
                                    AdversaryModel::kBoundedDelay, limits);
  EXPECT_TRUE(result.deadlock_found);
  EXPECT_EQ(result.delay_used_total, 0u);
}

TEST_F(SearchRingTest, MinimalDelayZeroForRingDeadlock) {
  bool exhausted = false;
  const auto min_delay = minimal_deadlock_delay(
      *table_, ring_messages(2), DelayMetric::kTotal, 2, {}, &exhausted);
  ASSERT_TRUE(min_delay.has_value());
  EXPECT_EQ(*min_delay, 0u);
}

TEST_F(SearchRingTest, NoDelayBudgetBreaksNeighborTraffic) {
  std::vector<sim::MessageSpec> specs;
  for (std::size_t s = 0; s < 4; ++s)
    specs.push_back({NodeId{s}, NodeId{(s + 1) % 4}, 3, 0});
  bool exhausted = false;
  const auto min_delay = minimal_deadlock_delay(
      *table_, specs, DelayMetric::kTotal, 3, {}, &exhausted);
  EXPECT_FALSE(min_delay.has_value());
  EXPECT_TRUE(exhausted);
}

TEST_F(SearchRingTest, DeeperBuffersDoNotRescueTheRing) {
  // The circular wait is structural: buffer depth changes worm compression,
  // not the wedge.
  SearchLimits limits;
  limits.buffer_depth = 2;
  const auto deep = find_deadlock(*table_, ring_messages(2),
                                  AdversaryModel::kSynchronous, limits);
  EXPECT_TRUE(deep.deadlock_found);
}

TEST_F(SearchRingTest, WitnessGrantsNameRealChannels) {
  const auto result = find_deadlock(*table_, ring_messages(2),
                                    AdversaryModel::kSynchronous, {});
  ASSERT_TRUE(result.deadlock_found);
  bool mentions_grant = false;
  for (const auto& line : result.witness)
    if (line.find("grant") != std::string::npos) mentions_grant = true;
  EXPECT_TRUE(mentions_grant);
}

using SearchDeathTest = SearchRingTest;

TEST_F(SearchDeathTest, RejectsNonZeroReleaseTimes) {
  std::vector<sim::MessageSpec> specs = ring_messages(2);
  specs[0].release_time = 5;
  EXPECT_DEATH(
      (void)find_deadlock(*table_, specs, AdversaryModel::kSynchronous, {}),
      "generation times");
}

TEST(MemoBudgetSearch, OverflowReportsNonExhausted) {
  // A too-small byte budget must surface as "ran out of room", never as a
  // fake proof of safety — mirroring the max_states contract.
  const core::CyclicFamily family(core::fig1_spec());
  SearchLimits limits;
  limits.memo_budget_bytes = 24 * 1024;
  const auto result = find_deadlock(family.algorithm(),
                                    family.message_specs(),
                                    AdversaryModel::kSynchronous, limits);
  EXPECT_FALSE(result.deadlock_found);
  EXPECT_FALSE(result.exhausted);
  EXPECT_GT(result.profile.table_peak_resident_bytes, 0u);
  EXPECT_LE(result.profile.table_peak_resident_bytes,
            limits.memo_budget_bytes);
}

TEST(MemoBudgetSearch, GenerousBudgetStaysExhaustive) {
  const core::CyclicFamily family(core::fig1_spec());
  SearchLimits limits;
  limits.memo_budget_bytes = 256ull * 1024 * 1024;
  const auto result = find_deadlock(family.algorithm(),
                                    family.message_specs(),
                                    AdversaryModel::kSynchronous, limits);
  EXPECT_TRUE(result.exhausted);
  EXPECT_GT(result.profile.table_peak_resident_bytes, 0u);
  EXPECT_LE(result.profile.table_peak_resident_bytes,
            limits.memo_budget_bytes);
}

}  // namespace
}  // namespace wormsim::analysis
