#include "routing/node_table.hpp"

#include <gtest/gtest.h>

#include "routing/properties.hpp"
#include "topo/builders.hpp"

namespace wormsim::routing {
namespace {

class NodeTableTest : public ::testing::Test {
 protected:
  NodeTableTest() : net_(topo::make_unidirectional_ring(4)), table_(net_) {}

  NodeId n(std::size_t i) const { return NodeId{i}; }
  ChannelId chan(std::size_t a) const {
    return *net_.find_channel(n(a), n((a + 1) % 4));
  }

  topo::Network net_;
  NodeTable table_;
};

TEST_F(NodeTableTest, RoutesViaNodeOnlyLookups) {
  table_.set(n(0), n(2), chan(0));
  table_.set(n(1), n(2), chan(1));
  const auto path = trace_path(table_, n(0), n(2));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 2u);
}

TEST_F(NodeTableTest, InputChannelIsIgnored) {
  // The same node-entry serves any input channel: N x N -> C.
  table_.set(n(1), n(3), chan(1));
  table_.set(n(2), n(3), chan(2));
  EXPECT_EQ(table_.next_channel(chan(0), n(3)), chan(1));
}

TEST_F(NodeTableTest, FullRingRoutingIsSuffixClosed) {
  // Route everything the only way a unidirectional ring allows; the
  // resulting algorithm is suffix-closed per Definition 8 (Corollary 1's
  // class).
  for (std::size_t s = 0; s < 4; ++s)
    for (std::size_t d = 0; d < 4; ++d)
      if (s != d) table_.set(n(s), n(d), chan(s));
  const auto report = analyze_properties(table_);
  EXPECT_TRUE(report.total);
  EXPECT_TRUE(report.suffix_closed);
  EXPECT_TRUE(report.minimal);  // only one direction exists
}

using NodeTableDeathTest = NodeTableTest;

TEST_F(NodeTableDeathTest, RejectsChannelNotLeavingNode) {
  EXPECT_DEATH(table_.set(n(0), n(2), chan(1)), "does not leave");
}

TEST_F(NodeTableDeathTest, RejectsRedefinition) {
  table_.set(n(0), n(2), chan(0));
  EXPECT_DEATH(table_.set(n(0), n(2), chan(0)), "already defined");
}

TEST_F(NodeTableDeathTest, UndefinedLookupAborts) {
  EXPECT_DEATH((void)table_.initial_channel(n(0), n(1)), "no route");
}

TEST(NodeTableSizingDeathTest, NodeAddedAfterTheTableAborts) {
  // The table is sized from the network it is made for; a node added
  // later has no row or column, so defining a route to it must abort.
  topo::Network net = topo::make_unidirectional_ring(3);
  NodeTable table(net);
  const NodeId late = net.add_node();
  const ChannelId to_late = net.add_channel(NodeId{0u}, late);
  EXPECT_FALSE(table.routes(NodeId{0u}, late));
  EXPECT_DEATH(table.set(NodeId{0u}, late, to_late), "sized for");
}

}  // namespace
}  // namespace wormsim::routing
