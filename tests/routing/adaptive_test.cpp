#include "routing/adaptive.hpp"

#include <gtest/gtest.h>

#include "cdg/cdg.hpp"
#include "routing/dor.hpp"
#include "sim/simulator.hpp"
#include "sim/workloads.hpp"

namespace wormsim::routing {
namespace {

class AdaptiveMeshTest : public ::testing::Test {
 protected:
  AdaptiveMeshTest()
      : single_(topo::make_mesh({3, 3})), dual_(topo::make_mesh({3, 3}, 2)) {}
  NodeId at(const topo::Grid& grid, int x, int y) const {
    const int c[2] = {x, y};
    return grid.node_at(c);
  }
  topo::Grid single_;
  topo::Grid dual_;
};

TEST_F(AdaptiveMeshTest, MinimalAdaptiveOffersEveryMinimalDirection) {
  const MinimalAdaptiveMesh alg(single_);
  const auto candidates =
      alg.initial_channels(at(single_, 0, 0), at(single_, 2, 2));
  EXPECT_EQ(candidates.size(), 2u);  // east and north
  for (const ChannelId c : candidates) {
    const auto& ch = single_.net().channel(c);
    EXPECT_EQ(ch.src, at(single_, 0, 0));
    EXPECT_LT(single_.grid_distance(ch.dst, at(single_, 2, 2)),
              single_.grid_distance(ch.src, at(single_, 2, 2)));
  }
}

TEST_F(AdaptiveMeshTest, SingleCandidateWhenAligned) {
  const MinimalAdaptiveMesh alg(single_);
  EXPECT_EQ(
      alg.initial_channels(at(single_, 0, 0), at(single_, 2, 0)).size(), 1u);
}

TEST_F(AdaptiveMeshTest, ObliviousAdapterHasOneCandidate) {
  const DimensionOrderMesh dor(single_);
  const ObliviousAsAdaptive adapted(dor);
  for (int x = 0; x < 3; ++x) {
    const auto cands =
        adapted.initial_channels(at(single_, 0, 0), at(single_, x, 2));
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_EQ(cands[0],
              dor.initial_channel(at(single_, 0, 0), at(single_, x, 2)));
  }
}

TEST_F(AdaptiveMeshTest, DuatoCandidatesIncludeEscape) {
  const DuatoFullyAdaptiveMesh alg(dual_);
  const auto candidates =
      alg.initial_channels(at(dual_, 0, 0), at(dual_, 2, 2));
  // Two adaptive lane-1 directions plus the lane-0 e-cube escape.
  ASSERT_EQ(candidates.size(), 3u);
  int lane0 = 0, lane1 = 0;
  for (const ChannelId c : candidates) {
    (dual_.net().channel(c).lane == 0 ? lane0 : lane1)++;
  }
  EXPECT_EQ(lane0, 1);
  EXPECT_EQ(lane1, 2);
}

TEST_F(AdaptiveMeshTest, WestFirstForcesWestHops) {
  const WestFirstAdaptiveMesh alg(single_);
  const auto west =
      alg.initial_channels(at(single_, 2, 0), at(single_, 0, 2));
  ASSERT_EQ(west.size(), 1u);
  EXPECT_EQ(single_.net().channel(west[0]).dst, at(single_, 1, 0));
  // Without west hops: adaptive among E/N.
  const auto open =
      alg.initial_channels(at(single_, 0, 0), at(single_, 2, 2));
  EXPECT_EQ(open.size(), 2u);
}

TEST_F(AdaptiveMeshTest, CdgCyclicityMatchesTheory) {
  const MinimalAdaptiveMesh minimal(single_);
  const WestFirstAdaptiveMesh west(single_);
  const DuatoFullyAdaptiveMesh duato(dual_);
  EXPECT_FALSE(cdg::ChannelDependencyGraph::build(minimal).acyclic());
  EXPECT_TRUE(cdg::ChannelDependencyGraph::build(west).acyclic());
  EXPECT_FALSE(cdg::ChannelDependencyGraph::build(duato).acyclic());
}

TEST_F(AdaptiveMeshTest, AdaptiveCdgContainsObliviousCdg) {
  // The adaptive relation of MinimalAdaptiveMesh contains dimension-order
  // routing, so its CDG must contain the XY CDG's edges.
  const DimensionOrderMesh dor(single_);
  const MinimalAdaptiveMesh minimal(single_);
  const auto base = cdg::ChannelDependencyGraph::build(dor);
  const auto wide = cdg::ChannelDependencyGraph::build(minimal);
  EXPECT_GT(wide.edge_count(), base.edge_count());
  for (const ChannelId c : single_.net().channel_ids())
    for (const ChannelId succ : base.successors(c))
      EXPECT_TRUE(wide.has_edge(c, succ));
}

TEST_F(AdaptiveMeshTest, SimulatorRunsAdaptiveTraffic) {
  const DuatoFullyAdaptiveMesh alg(dual_);
  sim::FifoArbitration policy;
  sim::SimConfig config;
  config.check_invariants = true;
  config.max_cycles = 100'000;
  sim::WormholeSimulator simulator(alg, config, policy);

  sim::WorkloadConfig workload;
  workload.injection_rate = 0.02;
  workload.message_length = 4;
  workload.horizon = 400;
  for (const auto& spec : sim::generate_workload(dual_, workload))
    simulator.add_message(spec);
  const auto result = simulator.run();
  EXPECT_EQ(result.outcome, sim::RunOutcome::kAllConsumed);
}

TEST_F(AdaptiveMeshTest, AdaptiveHeaderRoutesAroundABlockedChannel) {
  // A message can make progress on an alternative candidate while one
  // minimal direction is held by another worm — the point of adaptivity.
  const MinimalAdaptiveMesh alg(single_);
  sim::FifoArbitration policy;
  sim::WormholeSimulator simulator(alg, sim::SimConfig{}, policy);
  // Blocker: a long worm occupying the east channel out of (0,0).
  const auto blocker = simulator.add_message(
      {at(single_, 0, 0), at(single_, 2, 0), 12, 0});
  // Probe: wants (1,1); its east candidate is busy, north is free.
  const auto probe = simulator.add_message(
      {at(single_, 0, 0), at(single_, 1, 1), 2, 0});
  const auto result = simulator.run();
  EXPECT_EQ(result.outcome, sim::RunOutcome::kAllConsumed);
  // The probe must not have waited for the 12-flit blocker worm to drain
  // out of the east channel: it detours north and arrives within a few
  // cycles, long before the blocker's tail is consumed.
  EXPECT_LE(simulator.stats(probe).deliver_cycle, 5u);
  EXPECT_LT(simulator.stats(probe).deliver_cycle,
            simulator.stats(blocker).consume_cycle);
}

TEST(AdaptiveDeath, DuatoNeedsTwoLanes) {
  const topo::Grid grid = topo::make_mesh({3, 3});
  EXPECT_DEATH(DuatoFullyAdaptiveMesh{grid}, "lane");
}

}  // namespace
}  // namespace wormsim::routing
