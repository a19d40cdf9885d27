#include "routing/node_table.hpp"

namespace wormsim::routing {

void NodeTable::set(NodeId at, NodeId dst, ChannelId channel) {
  WORMSIM_EXPECTS(at != dst);
  WORMSIM_EXPECTS(channel.valid());
  WORMSIM_EXPECTS_MSG(net().channel(channel).src == at,
                      "channel does not leave the given node");
  WORMSIM_EXPECTS_MSG(at.index() < nodes_ && dst.index() < nodes_,
                      "node outside the network the table was sized for");
  ChannelId& slot = table_[at.index() * nodes_ + dst.index()];
  WORMSIM_EXPECTS_MSG(!slot.valid(), "routing entry already defined");
  slot = channel;
}

bool NodeTable::routes(NodeId src, NodeId dst) const {
  return entry(src, dst).valid();
}

ChannelId NodeTable::initial_channel(NodeId src, NodeId dst) const {
  const ChannelId c = entry(src, dst);
  WORMSIM_EXPECTS_MSG(c.valid(), "no route for (src, dst)");
  return c;
}

ChannelId NodeTable::next_channel(ChannelId in, NodeId dst) const {
  const NodeId at = net().channel(in).dst;
  WORMSIM_EXPECTS(at != dst);
  const ChannelId c = entry(at, dst);
  WORMSIM_EXPECTS_MSG(c.valid(), "routing function undefined for (node, dst)");
  return c;
}

}  // namespace wormsim::routing
