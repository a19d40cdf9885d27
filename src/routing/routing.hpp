// Oblivious routing-function interface (paper Definitions 2 and 3).
//
// The paper studies routing functions of the form R : C x N -> C — the output
// channel is determined by the *input channel* the header arrived on and the
// message's destination node. Injection is modeled by `initial_channel`,
// which plays the role of R applied to the (implicit) injection channel of
// the source router; this keeps injection queues out of the channel
// dependency graph, where they could never participate in a cycle anyway
// (they have no incoming dependencies).
//
// A subclass must be a *function*: for a fixed (input channel, destination)
// the output channel is unique, which is what makes the algorithm oblivious —
// each (source, destination) pair induces exactly one path.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "topo/network.hpp"
#include "util/ids.hpp"

namespace wormsim::routing {

/// Abstract oblivious routing algorithm over a fixed Network. Implementations
/// hold a reference to the network they were built for; the network must
/// outlive the algorithm.
class RoutingAlgorithm {
 public:
  explicit RoutingAlgorithm(const topo::Network& net) : net_(&net) {}
  virtual ~RoutingAlgorithm() = default;

  RoutingAlgorithm(const RoutingAlgorithm&) = delete;
  RoutingAlgorithm& operator=(const RoutingAlgorithm&) = delete;

  [[nodiscard]] const topo::Network& net() const { return *net_; }

  [[nodiscard]] virtual std::string name() const = 0;

  /// Whether a route is defined from src to dst. Always true for complete
  /// algorithms (DOR etc.); the paper's example networks only route selected
  /// pairs unless hub completion is enabled.
  [[nodiscard]] virtual bool routes(NodeId src, NodeId dst) const = 0;

  /// First channel used by a message injected at `src` destined for `dst`.
  /// Precondition: routes(src, dst) and src != dst.
  [[nodiscard]] virtual ChannelId initial_channel(NodeId src,
                                                  NodeId dst) const = 0;

  /// R(in, dst): the unique output channel after a header arrives over `in`
  /// with destination `dst`. Precondition: head(in) != dst — a message at
  /// its destination is consumed, not routed.
  [[nodiscard]] virtual ChannelId next_channel(ChannelId in,
                                               NodeId dst) const = 0;

 private:
  const topo::Network* net_;
};

/// Walks the algorithm's route from src to dst and returns the channel
/// sequence. Returns nullopt if the route fails to terminate within
/// `max_hops` (livelocked or corrupt table) or a lookup is undefined.
std::optional<std::vector<ChannelId>> trace_path(const RoutingAlgorithm& alg,
                                                 NodeId src, NodeId dst,
                                                 std::size_t max_hops = 10'000);

/// trace_path into a caller-owned buffer, which it clears first; false
/// where the other form returns nullopt. A caller that traces many pairs
/// reuses one allocation.
bool trace_path(const RoutingAlgorithm& alg, NodeId src, NodeId dst,
                std::vector<ChannelId>& path, std::size_t max_hops = 10'000);

/// Node sequence visited by a channel path starting at `src` (src first,
/// destination last).
std::vector<NodeId> nodes_of_path(const topo::Network& net, NodeId src,
                                  std::span<const ChannelId> path);

}  // namespace wormsim::routing
