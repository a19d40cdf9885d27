// Deadlock-detection tests: the classic unidirectional-ring wormhole
// deadlock (Dally & Seitz's motivating example) must be detected by the
// quiescence detector and reported with a Definition-6 wait-for cycle.
#include <gtest/gtest.h>

#include "routing/node_table.hpp"
#include "sim/simulator.hpp"
#include "topo/builders.hpp"

namespace wormsim::sim {
namespace {

/// 4-node unidirectional ring where every node sends to the node two hops
/// away. With messages long enough to span two channels, simultaneous
/// injection deadlocks — the canonical CDG-cycle deadlock.
class RingDeadlockTest : public ::testing::Test {
 protected:
  RingDeadlockTest() : net_(topo::make_unidirectional_ring(4)) {
    table_ = std::make_unique<routing::NodeTable>(net_);
    for (std::size_t s = 0; s < 4; ++s)
      for (std::size_t d = 0; d < 4; ++d)
        if (s != d)
          table_->set(NodeId{s}, NodeId{d},
                      *net_.find_channel(NodeId{s}, NodeId{(s + 1) % 4}));
  }
  topo::Network net_;
  std::unique_ptr<routing::NodeTable> table_;
  FifoArbitration policy_;
};

TEST_F(RingDeadlockTest, SimultaneousLongMessagesDeadlock) {
  SimConfig config;
  config.check_invariants = true;
  WormholeSimulator sim(*table_, config, policy_);
  for (std::size_t s = 0; s < 4; ++s)
    sim.add_message({NodeId{s}, NodeId{(s + 2) % 4}, 2, 0});
  const auto result = sim.run();
  EXPECT_EQ(result.outcome, RunOutcome::kDeadlock);
  // All four messages participate in the wait-for cycle.
  EXPECT_EQ(result.deadlock_cycle.size(), 4u);
  // Deadlock is reported promptly, not at the cycle horizon.
  EXPECT_LT(result.cycles, 100u);
}

TEST_F(RingDeadlockTest, SingleFlitMessagesStillWedgeTheRing) {
  // Even single-flit packets deadlock here: each holds its first channel
  // and waits on the next, which its neighbor holds — the classic k-ary
  // n-cube wedge needs no long worms.
  WormholeSimulator sim(*table_, SimConfig{}, policy_);
  for (std::size_t s = 0; s < 4; ++s)
    sim.add_message({NodeId{s}, NodeId{(s + 2) % 4}, 1, 0});
  const auto result = sim.run();
  EXPECT_EQ(result.outcome, RunOutcome::kDeadlock);
}

TEST_F(RingDeadlockTest, NeighborTrafficDrains) {
  // Messages to the immediate neighbor never wait on an occupied channel:
  // the header is at its destination after one hop.
  WormholeSimulator sim(*table_, SimConfig{}, policy_);
  for (std::size_t s = 0; s < 4; ++s)
    sim.add_message({NodeId{s}, NodeId{(s + 1) % 4}, 3, 0});
  const auto result = sim.run();
  EXPECT_EQ(result.outcome, RunOutcome::kAllConsumed);
}

TEST_F(RingDeadlockTest, StaggeredInjectionAvoidsDeadlock) {
  // Releasing the messages far apart lets each drain before the next
  // enters: reachability of the deadlock depends on the schedule.
  WormholeSimulator sim(*table_, SimConfig{}, policy_);
  for (std::size_t s = 0; s < 4; ++s)
    sim.add_message({NodeId{s}, NodeId{(s + 2) % 4}, 2, s * 20});
  const auto result = sim.run();
  EXPECT_EQ(result.outcome, RunOutcome::kAllConsumed);
}

TEST_F(RingDeadlockTest, DeeperBuffersDoNotSaveTheRing) {
  // With 2-flit buffers the 4 messages still wedge once each holds its two
  // channels' worth of buffering and waits on the next channel. Use length
  // 4 so each worm spans two channels even at depth 2.
  SimConfig config;
  config.buffer_depth = 2;
  WormholeSimulator sim(*table_, config, policy_);
  for (std::size_t s = 0; s < 4; ++s)
    sim.add_message({NodeId{s}, NodeId{(s + 2) % 4}, 4, 0});
  const auto result = sim.run();
  EXPECT_EQ(result.outcome, RunOutcome::kDeadlock);
}

TEST_F(RingDeadlockTest, WaitCycleMembersAreMutuallyBlocked) {
  WormholeSimulator sim(*table_, SimConfig{}, policy_);
  for (std::size_t s = 0; s < 4; ++s)
    sim.add_message({NodeId{s}, NodeId{(s + 2) % 4}, 2, 0});
  const auto result = sim.run();
  ASSERT_EQ(result.outcome, RunOutcome::kDeadlock);
  const auto occ = sim.occupancy();
  for (const auto& o : occ) {
    EXPECT_TRUE(o.blocked_on.valid());
    EXPECT_TRUE(sim.channel_owner(o.blocked_on).valid());
  }
}

TEST(FindWaitCycle, DetectsSimpleCycle) {
  std::vector<MessageOccupancy> occ(2);
  occ[0].message = MessageId{0u};
  occ[0].blocked_on = ChannelId{10u};
  occ[1].message = MessageId{1u};
  occ[1].blocked_on = ChannelId{20u};
  const auto owner = [](ChannelId c) {
    return c == ChannelId{10u} ? MessageId{1u} : MessageId{0u};
  };
  const auto cycle = find_wait_cycle(occ, owner);
  EXPECT_EQ(cycle.size(), 2u);
}

TEST(FindWaitCycle, NoCycleInChain) {
  std::vector<MessageOccupancy> occ(2);
  occ[0].message = MessageId{0u};
  occ[0].blocked_on = ChannelId{10u};
  occ[1].message = MessageId{1u};
  // m1 not blocked; m0 -> m1 is a chain, not a cycle.
  const auto owner = [](ChannelId) { return MessageId{1u}; };
  EXPECT_TRUE(find_wait_cycle(occ, owner).empty());
}

TEST(FindWaitCycle, SelfBlockDetected) {
  // A message whose route revisits a channel it still holds blocks on
  // itself (Definition 6 allows this).
  std::vector<MessageOccupancy> occ(1);
  occ[0].message = MessageId{3u};
  occ[0].blocked_on = ChannelId{5u};
  const auto owner = [](ChannelId) { return MessageId{3u}; };
  EXPECT_EQ(find_wait_cycle(occ, owner).size(), 1u);
}

}  // namespace
}  // namespace wormsim::sim
