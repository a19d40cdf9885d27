#include "routing/routing.hpp"

namespace wormsim::routing {

std::optional<std::vector<ChannelId>> trace_path(const RoutingAlgorithm& alg,
                                                 NodeId src, NodeId dst,
                                                 std::size_t max_hops) {
  std::vector<ChannelId> path;
  if (!trace_path(alg, src, dst, path, max_hops)) return std::nullopt;
  return path;
}

bool trace_path(const RoutingAlgorithm& alg, NodeId src, NodeId dst,
                std::vector<ChannelId>& path, std::size_t max_hops) {
  WORMSIM_EXPECTS(src != dst);
  path.clear();
  if (!alg.routes(src, dst)) return false;
  ChannelId c = alg.initial_channel(src, dst);
  while (true) {
    if (!c.valid()) return false;
    path.push_back(c);
    if (path.size() > max_hops) return false;
    const topo::Channel& ch = alg.net().channel(c);
    if (ch.dst == dst) return true;
    c = alg.next_channel(c, dst);
  }
}

std::vector<NodeId> nodes_of_path(const topo::Network& net, NodeId src,
                                  std::span<const ChannelId> path) {
  std::vector<NodeId> nodes;
  nodes.reserve(path.size() + 1);
  nodes.push_back(src);
  for (const ChannelId c : path) nodes.push_back(net.channel(c).dst);
  return nodes;
}

}  // namespace wormsim::routing
