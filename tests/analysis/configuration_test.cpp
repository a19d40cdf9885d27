#include "analysis/configuration.hpp"

#include <gtest/gtest.h>

#include "routing/node_table.hpp"
#include "sim/simulator.hpp"
#include "topo/builders.hpp"

namespace wormsim::analysis {
namespace {

/// Ring fixture with the canonical deadlock for snapshot/legality tests.
class ConfigurationTest : public ::testing::Test {
 protected:
  ConfigurationTest() : net_(topo::make_unidirectional_ring(4)) {
    table_ = std::make_unique<routing::NodeTable>(net_);
    for (std::size_t s = 0; s < 4; ++s)
      for (std::size_t d = 0; d < 4; ++d)
        if (s != d)
          table_->set(NodeId{s}, NodeId{d},
                      *net_.find_channel(NodeId{s}, NodeId{(s + 1) % 4}));
  }
  topo::Network net_;
  std::unique_ptr<routing::NodeTable> table_;
  sim::FifoArbitration policy_;
};

TEST_F(ConfigurationTest, SnapshotOfRunningSimIsLegal) {
  sim::WormholeSimulator sim(*table_, sim::SimConfig{}, policy_);
  sim.add_message({NodeId{std::size_t{0}}, NodeId{std::size_t{2}}, 2, 0});
  sim.step();
  sim.step();
  const Configuration config = snapshot(sim);
  ASSERT_EQ(config.placements.size(), 1u);
  const auto report = check_legal(config, *table_, 1);
  EXPECT_TRUE(report.legal) << report.violation;
}

TEST_F(ConfigurationTest, DeadlockSnapshotIsLegalAndDeadlockShaped) {
  sim::WormholeSimulator sim(*table_, sim::SimConfig{}, policy_);
  for (std::size_t s = 0; s < 4; ++s)
    sim.add_message({NodeId{s}, NodeId{(s + 2) % 4}, 2, 0});
  const auto result = sim.run();
  ASSERT_EQ(result.outcome, sim::RunOutcome::kDeadlock);
  const Configuration config = snapshot(sim);
  EXPECT_TRUE(check_legal(config, *table_, 1).legal);
  EXPECT_TRUE(is_deadlock_shaped(config, *table_));
}

TEST_F(ConfigurationTest, DrainingConfigurationIsNotDeadlockShaped) {
  sim::WormholeSimulator sim(*table_, sim::SimConfig{}, policy_);
  sim.add_message({NodeId{std::size_t{0}}, NodeId{std::size_t{1}}, 3, 0});
  sim.step();
  sim.step();  // header at destination channel
  const Configuration config = snapshot(sim);
  EXPECT_FALSE(is_deadlock_shaped(config, *table_));
}

TEST_F(ConfigurationTest, OverCapacityFlagged) {
  Configuration config;
  MessagePlacement p;
  p.message = MessageId{0u};
  p.src = NodeId{std::size_t{0}};
  p.dst = NodeId{std::size_t{2}};
  p.length = 5;
  p.occupied = {*net_.find_channel(NodeId{std::size_t{0}},
                                   NodeId{std::size_t{1}})};
  p.flits = {3};  // 3 flits in a depth-1 buffer
  config.placements.push_back(p);
  const auto report = check_legal(config, *table_, 1);
  EXPECT_FALSE(report.legal);
  EXPECT_NE(report.violation.find("capacity"), std::string::npos);
}

TEST_F(ConfigurationTest, NonContiguousOccupancyFlagged) {
  Configuration config;
  MessagePlacement p;
  p.message = MessageId{0u};
  p.src = NodeId{std::size_t{0}};
  p.dst = NodeId{std::size_t{3}};
  p.length = 3;
  p.occupied = {
      *net_.find_channel(NodeId{std::size_t{0}}, NodeId{std::size_t{1}}),
      *net_.find_channel(NodeId{std::size_t{2}}, NodeId{std::size_t{3}})};
  p.flits = {1, 1};
  config.placements.push_back(p);
  EXPECT_FALSE(check_legal(config, *table_, 1).legal);
}

TEST_F(ConfigurationTest, OffRouteOccupancyFlagged) {
  // Occupying a channel not on the algorithm's path for the pair violates
  // Definition 4's "channels the routing algorithm permits".
  Configuration config;
  MessagePlacement p;
  p.message = MessageId{0u};
  p.src = NodeId{std::size_t{0}};
  p.dst = NodeId{std::size_t{1}};
  p.length = 1;
  p.occupied = {
      *net_.find_channel(NodeId{std::size_t{2}}, NodeId{std::size_t{3}})};
  p.flits = {1};
  config.placements.push_back(p);
  const auto report = check_legal(config, *table_, 1);
  EXPECT_FALSE(report.legal);
}

TEST_F(ConfigurationTest, SharedQueueFlagged) {
  // Atomic buffer allocation: two messages in one channel queue.
  const ChannelId c =
      *net_.find_channel(NodeId{std::size_t{0}}, NodeId{std::size_t{1}});
  Configuration config;
  for (std::uint32_t m = 0; m < 2; ++m) {
    MessagePlacement p;
    p.message = MessageId{m};
    p.src = NodeId{std::size_t{0}};
    p.dst = NodeId{std::size_t{1}};
    p.length = 1;
    p.occupied = {c};
    p.flits = {1};
    config.placements.push_back(p);
  }
  const auto report = check_legal(config, *table_, 2);
  EXPECT_FALSE(report.legal);
  EXPECT_NE(report.violation.find("share"), std::string::npos);
}

TEST_F(ConfigurationTest, EmptyPlacementFlagged) {
  Configuration config;
  MessagePlacement p;
  p.message = MessageId{0u};
  p.src = NodeId{std::size_t{0}};
  p.dst = NodeId{std::size_t{1}};
  config.placements.push_back(p);
  EXPECT_FALSE(check_legal(config, *table_, 1).legal);
}

}  // namespace
}  // namespace wormsim::analysis
