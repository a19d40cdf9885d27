// Node-table routing: R : N x N -> C.
//
// The output channel depends only on the *current node* and the destination —
// the input channel is ignored. Corollary 1 of the paper proves this entire
// class has no unreachable cyclic configurations (every CDG cycle is
// reachable and hence a genuine deadlock risk), and every such algorithm is
// suffix-closed by construction (Definition 8). The random-algorithm
// generators used by the corollary property tests produce instances of this
// class.
//
// The table is a dense node x node array of out-channels, sized from the
// network's node count when the table is made, so the network must be
// complete by then: a node added afterwards has no row, and set() on it
// aborts.
#pragma once

#include <vector>

#include "routing/routing.hpp"

namespace wormsim::routing {

class NodeTable final : public RoutingAlgorithm {
 public:
  explicit NodeTable(const topo::Network& net, std::string name = "node-table")
      : RoutingAlgorithm(net),
        name_(std::move(name)),
        nodes_(net.node_count()),
        table_(nodes_ * nodes_) {}

  /// Defines the out-channel taken at `at` for messages destined to `dst`.
  /// `channel` must leave `at`. Entries may not be redefined.
  void set(NodeId at, NodeId dst, ChannelId channel);

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] bool routes(NodeId src, NodeId dst) const override;
  [[nodiscard]] ChannelId initial_channel(NodeId src,
                                          NodeId dst) const override;
  [[nodiscard]] ChannelId next_channel(ChannelId in, NodeId dst) const override;

 private:
  /// The entry for (at, dst); invalid when undefined or off the table.
  [[nodiscard]] ChannelId entry(NodeId at, NodeId dst) const {
    if (at.index() >= nodes_ || dst.index() >= nodes_) return {};
    return table_[at.index() * nodes_ + dst.index()];
  }

  std::string name_;
  std::size_t nodes_;
  std::vector<ChannelId> table_;  ///< row `at`, column `dst`
};

}  // namespace wormsim::routing
