#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "routing/node_table.hpp"
#include "routing/table_routing.hpp"
#include "topo/builders.hpp"

namespace wormsim::sim {
namespace {

/// Straight-line network a0 -> a1 -> ... -> a4 with the only possible
/// routes, for pipeline-timing tests.
class LineSimTest : public ::testing::Test {
 protected:
  LineSimTest() {
    for (int i = 0; i < 5; ++i) nodes_.push_back(net_.add_node());
    for (int i = 0; i < 4; ++i)
      chans_.push_back(net_.add_channel(nodes_[static_cast<std::size_t>(i)],
                                        nodes_[static_cast<std::size_t>(i) + 1]));
    table_ = std::make_unique<routing::NodeTable>(net_);
    for (std::size_t s = 0; s < 5; ++s)
      for (std::size_t d = s + 1; d < 5; ++d)
        table_->set(nodes_[s], nodes_[d], chans_[s]);
  }

  WormholeSimulator make_sim(std::uint32_t buffers = 1) {
    SimConfig config;
    config.buffer_depth = buffers;
    config.check_invariants = true;
    return WormholeSimulator(*table_, config, policy_);
  }

  topo::Network net_;
  std::vector<NodeId> nodes_;
  std::vector<ChannelId> chans_;
  std::unique_ptr<routing::NodeTable> table_;
  FifoArbitration policy_;
};

TEST_F(LineSimTest, SingleFlitMessageTraversesOneChannelPerCycle) {
  auto sim = make_sim();
  const MessageId m = sim.add_message({nodes_[0], nodes_[4], 1, 0});
  const auto result = sim.run();
  EXPECT_EQ(result.outcome, RunOutcome::kAllConsumed);
  // Inject at cycle 1, one hop per cycle over 4 channels, consumed on
  // arrival: header consumed at cycle 5.
  EXPECT_EQ(sim.stats(m).inject_cycle, 1u);
  EXPECT_EQ(sim.stats(m).deliver_cycle, 5u);
  EXPECT_EQ(sim.stats(m).consume_cycle, 5u);
  EXPECT_EQ(sim.stats(m).hops, 4u);
}

TEST_F(LineSimTest, WormPipelinesBehindHeader) {
  auto sim = make_sim();
  const MessageId m = sim.add_message({nodes_[0], nodes_[4], 3, 0});
  const auto result = sim.run();
  EXPECT_EQ(result.outcome, RunOutcome::kAllConsumed);
  // Header arrives as before; the remaining 2 flits drain at 1/cycle.
  EXPECT_EQ(sim.stats(m).deliver_cycle, 5u);
  EXPECT_EQ(sim.stats(m).consume_cycle, 7u);
}

TEST_F(LineSimTest, LongWormStreamsWithoutStalling) {
  auto sim = make_sim();
  const MessageId m = sim.add_message({nodes_[0], nodes_[4], 10, 0});
  const auto result = sim.run();
  EXPECT_EQ(result.outcome, RunOutcome::kAllConsumed);
  EXPECT_EQ(sim.stats(m).deliver_cycle, 5u);
  EXPECT_EQ(sim.stats(m).consume_cycle, 14u);  // 10 flits, 1/cycle from 5
}

TEST_F(LineSimTest, ReleaseTimeDelaysInjection) {
  auto sim = make_sim();
  const MessageId m = sim.add_message({nodes_[0], nodes_[4], 1, 7});
  const auto result = sim.run();
  EXPECT_EQ(result.outcome, RunOutcome::kAllConsumed);
  EXPECT_EQ(sim.stats(m).inject_cycle, 7u);
}

TEST_F(LineSimTest, AtomicAllocationSeparatesMessages) {
  auto sim = make_sim();
  const MessageId first = sim.add_message({nodes_[0], nodes_[4], 4, 0});
  const MessageId second = sim.add_message({nodes_[0], nodes_[4], 1, 0});
  const auto result = sim.run();
  EXPECT_EQ(result.outcome, RunOutcome::kAllConsumed);
  // The second message may enter channel 0 only after the first's tail has
  // left it: first's tail leaves chans_[0] at cycle 5 (4 flits streaming),
  // so the second injects no earlier than cycle 6.
  EXPECT_GE(sim.stats(second).inject_cycle, 6u);
  EXPECT_LT(sim.stats(first).consume_cycle, sim.stats(second).consume_cycle);
}

TEST_F(LineSimTest, DeeperBuffersCompressTheWorm) {
  auto sim = make_sim(/*buffers=*/2);
  const MessageId m = sim.add_message({nodes_[0], nodes_[4], 8, 0});
  const auto result = sim.run();
  EXPECT_EQ(result.outcome, RunOutcome::kAllConsumed);
  EXPECT_EQ(sim.stats(m).deliver_cycle, 5u);
  EXPECT_EQ(sim.stats(m).consume_cycle, 12u);
}

TEST_F(LineSimTest, OccupancySnapshotTracksWorm) {
  auto sim = make_sim();
  sim.add_message({nodes_[0], nodes_[4], 4, 0});
  sim.step();  // inject: header in chans_[0]
  sim.step();  // header -> chans_[1], flit behind it
  const auto occ = sim.occupancy();
  ASSERT_EQ(occ.size(), 1u);
  EXPECT_EQ(occ[0].held.size(), 2u);
  EXPECT_EQ(occ[0].held[0], chans_[0]);
  EXPECT_EQ(occ[0].held[1], chans_[1]);
  EXPECT_EQ(occ[0].counts[0], 1u);
  EXPECT_EQ(occ[0].counts[1], 1u);
  EXPECT_EQ(sim.channel_owner(chans_[0]).value(), 0u);
}

TEST_F(LineSimTest, ChannelsReleasedAfterTailPasses) {
  auto sim = make_sim();
  sim.add_message({nodes_[0], nodes_[4], 2, 0});
  for (int i = 0; i < 4; ++i) sim.step();
  // After 4 cycles the 2-flit worm has moved past chans_[0]: cycle 1 inject,
  // cycle 2 header->1 + flit2->0, cycle 3 header->2, flit2->1 (tail leaves
  // channel 0).
  EXPECT_FALSE(sim.channel_owner(chans_[0]).valid());
}

TEST_F(LineSimTest, StateKeyIdenticalForIdenticalRuns) {
  auto sim1 = make_sim();
  auto sim2 = make_sim();
  for (auto* s : {&sim1, &sim2}) {
    s->add_message({nodes_[0], nodes_[4], 3, 0});
    s->add_message({nodes_[1], nodes_[4], 2, 0});
    s->step();
    s->step();
  }
  EXPECT_EQ(sim1.state_key(), sim2.state_key());
  sim1.step();
  EXPECT_NE(sim1.state_key(), sim2.state_key());
}

TEST_F(LineSimTest, PeekRequestsDoesNotMutate) {
  auto sim = make_sim();
  sim.add_message({nodes_[0], nodes_[4], 1, 0});
  const auto key_before = sim.state_key();
  const auto requests = sim.peek_requests();
  EXPECT_EQ(sim.state_key(), key_before);
  ASSERT_EQ(requests.size(), 1u);
  ASSERT_EQ(requests[0].channels.size(), 1u);
  EXPECT_EQ(requests[0].channels[0], chans_[0]);
  EXPECT_FALSE(requests[0].moving);  // pending injection
}

TEST_F(LineSimTest, StepWithGrantsHonorsEmptyGrant) {
  auto sim = make_sim();
  sim.add_message({nodes_[0], nodes_[4], 1, 0});
  // Denying the injection leaves the network empty: no progress.
  EXPECT_FALSE(sim.step_with_grants({}));
  // Granting it moves the header in.
  const auto requests = sim.peek_requests();
  const std::pair<ChannelId, MessageId> grant{requests[0].channels[0],
                                              requests[0].message};
  EXPECT_TRUE(sim.step_with_grants({&grant, 1}));
  EXPECT_EQ(sim.status(MessageId{0u}), MessageStatus::kMoving);
}

TEST_F(LineSimTest, FlitsMovedCountsActivity) {
  auto sim = make_sim();
  sim.add_message({nodes_[0], nodes_[4], 2, 0});
  sim.run();
  // 2 flits each traverse 4 channels = 8 channel entries.
  EXPECT_EQ(sim.flits_moved(), 8u);
}

TEST(SimulatorDeath, AddMessageRequiresRoute) {
  topo::Network net;
  const NodeId a = net.add_node(), b = net.add_node(), c = net.add_node();
  net.add_channel(a, b);
  net.add_channel(b, c);
  routing::NodeTable table(net);
  table.set(a, b, *net.find_channel(a, b));
  FifoArbitration policy;
  WormholeSimulator sim(table, SimConfig{}, policy);
  EXPECT_DEATH(sim.add_message({a, c, 1, 0}), "does not route");
}

TEST(SimulatorDeath, ZeroLengthMessageRejected) {
  topo::Network net;
  const NodeId a = net.add_node(), b = net.add_node();
  net.add_channel(a, b);
  routing::NodeTable table(net);
  table.set(a, b, *net.find_channel(a, b));
  FifoArbitration policy;
  WormholeSimulator sim(table, SimConfig{}, policy);
  EXPECT_DEATH(sim.add_message({a, b, 0, 0}), "length");
}

}  // namespace
}  // namespace wormsim::sim
