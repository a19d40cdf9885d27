#include "sim/arbitration.hpp"

#include <gtest/gtest.h>

#include "routing/node_table.hpp"
#include "sim/simulator.hpp"
#include "topo/builders.hpp"

namespace wormsim::sim {
namespace {

ChannelRequest req(std::uint32_t m, std::uint32_t c, Cycle since) {
  return ChannelRequest{MessageId{m}, ChannelId{c}, since};
}

TEST(FifoArbitration, LongestWaiterWins) {
  FifoArbitration policy;
  const ChannelRequest requests[] = {req(0, 7, 10), req(1, 7, 3),
                                     req(2, 7, 5)};
  EXPECT_EQ(policy.pick(requests).value(), 1u);
}

TEST(FifoArbitration, TieBrokenByLowerId) {
  FifoArbitration policy;
  const ChannelRequest requests[] = {req(5, 7, 4), req(2, 7, 4)};
  EXPECT_EQ(policy.pick(requests).value(), 2u);
}

TEST(PriorityArbitration, RankedMessageBeatsUnranked) {
  PriorityArbitration policy({2, 0, 1});
  const ChannelRequest requests[] = {req(0, 7, 1), req(3, 7, 1)};
  EXPECT_EQ(policy.pick(requests).value(), 0u);
}

TEST(PriorityArbitration, LowerRankWins) {
  PriorityArbitration policy({2, 0, 1});
  const ChannelRequest requests[] = {req(0, 7, 1), req(1, 7, 9),
                                     req(2, 7, 0)};
  EXPECT_EQ(policy.pick(requests).value(), 1u);
}

/// Two senders contending for one channel: the ranked sender must win under
/// PriorityArbitration regardless of arrival order.
class ContentionTest : public ::testing::Test {
 protected:
  ContentionTest() {
    const NodeId a = net_.add_node("a"), b = net_.add_node("b"),
                 c = net_.add_node("c"), d = net_.add_node("d");
    net_.add_channel(a, c);
    net_.add_channel(b, c);
    shared_ = net_.add_channel(c, d);
    table_ = std::make_unique<routing::NodeTable>(net_);
    table_->set(a, d, *net_.find_channel(a, c));
    table_->set(b, d, *net_.find_channel(b, c));
    table_->set(c, d, shared_);
    a_ = a; b_ = b; d_ = d;
  }
  topo::Network net_;
  std::unique_ptr<routing::NodeTable> table_;
  ChannelId shared_;
  NodeId a_, b_, d_;
};

TEST_F(ContentionTest, PriorityDecidesSimultaneousRequests) {
  PriorityArbitration policy({1, 0});  // message 1 outranks message 0
  WormholeSimulator sim(*table_, SimConfig{}, policy);
  sim.add_message({a_, d_, 3, 0});  // m0
  sim.add_message({b_, d_, 3, 0});  // m1
  const auto result = sim.run();
  EXPECT_EQ(result.outcome, RunOutcome::kAllConsumed);
  // Both arrive at c simultaneously (cycle 2); m1 must win the shared
  // channel and finish first.
  EXPECT_LT(sim.stats(MessageId{1u}).deliver_cycle,
            sim.stats(MessageId{0u}).deliver_cycle);
}

TEST_F(ContentionTest, FifoPreventsStarvation) {
  FifoArbitration policy;
  WormholeSimulator sim(*table_, SimConfig{}, policy);
  // A stream of messages from a and one from b: the b message must still
  // get through (Assumption 5).
  for (int i = 0; i < 4; ++i) sim.add_message({a_, d_, 2, 0});
  const MessageId mb = sim.add_message({b_, d_, 2, 0});
  const auto result = sim.run();
  EXPECT_EQ(result.outcome, RunOutcome::kAllConsumed);
  EXPECT_EQ(sim.status(mb), MessageStatus::kConsumed);
}

}  // namespace
}  // namespace wormsim::sim
