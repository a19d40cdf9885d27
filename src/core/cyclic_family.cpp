#include "core/cyclic_family.hpp"

#include <string>

namespace wormsim::core {

namespace {

std::string idx_name(const char* prefix, std::size_t i) {
  return std::string(prefix) + std::to_string(i);
}

}  // namespace

CyclicFamily::CyclicFamily(CyclicFamilySpec spec)
    : spec_(std::move(spec)),
      net_(std::make_unique<topo::Network>()) {
  const std::size_t m = spec_.messages.size();
  WORMSIM_EXPECTS_MSG(m >= 2, "a ring needs at least two messages");
  for (const CyclicMessageParams& p : spec_.messages) {
    WORMSIM_EXPECTS_MSG(p.hold >= 1, "segments need at least one channel");
    WORMSIM_EXPECTS_MSG(p.access >= (p.uses_shared ? 2 : 1),
                        "sharing messages need c_s plus >= 1 arm channel");
  }

  topo::Network& net = *net_;
  src_ = net.add_node("Src");
  const NodeId nstar = net.add_node("N*");
  shared_ = net.add_channel(src_, nstar, 0, "c_s");

  // Ring entry nodes.
  std::vector<NodeId> entry_nodes(m);
  for (std::size_t i = 0; i < m; ++i)
    entry_nodes[i] = net.add_node(idx_name("P", i + 1));

  // Segments: segment i runs from P_i to P_{i+1} with hold_i channels. The
  // node one channel into segment i is D_{i-1}, the destination of the
  // previous message in cycle order.
  std::vector<std::vector<ChannelId>> segments(m);
  std::vector<NodeId> dest_nodes(m);  // dest_nodes[i] = D_i
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t prev = (i + m - 1) % m;
    NodeId at = entry_nodes[i];
    const int hold = spec_.messages[i].hold;
    for (int step = 0; step < hold; ++step) {
      NodeId next;
      if (step == hold - 1) {
        next = entry_nodes[(i + 1) % m];
      } else if (step == 0) {
        next = net.add_node(idx_name("D", prev + 1));
      } else {
        next = net.add_node(idx_name("P", i + 1) + "x" +
                            std::to_string(step));
      }
      segments[i].push_back(net.add_channel(at, next));
      at = next;
    }
    dest_nodes[prev] = net.channel(segments[i].front()).dst;
  }
  for (const auto& seg : segments)
    ring_.insert(ring_.end(), seg.begin(), seg.end());

  // Access arms and full message paths.
  routing_ = std::make_unique<routing::PathTable>(net, spec_.name);
  messages_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const CyclicMessageParams& p = spec_.messages[i];
    MessageInfo& info = messages_[i];
    info.params = p;
    info.dest = dest_nodes[i];
    info.segment = segments[i];
    info.entry = segments[i].front();
    info.blocking = segments[(i + 1) % m].front();

    std::vector<ChannelId> path;
    if (p.uses_shared) {
      info.source = src_;
      path.push_back(shared_);
      // access counts c_s itself; the arm from N* has access-1 channels.
      NodeId at = nstar;
      for (int step = 0; step < p.access - 1; ++step) {
        const NodeId next =
            step == p.access - 2
                ? entry_nodes[i]
                : net.add_node(idx_name("a", i + 1) + "_" +
                               std::to_string(step));
        path.push_back(net.add_channel(at, next));
        at = next;
      }
    } else {
      info.source = net.add_node(idx_name("S", i + 1));
      NodeId at = info.source;
      for (int step = 0; step < p.access; ++step) {
        const NodeId next =
            step == p.access - 1
                ? entry_nodes[i]
                : net.add_node(idx_name("s", i + 1) + "_" +
                               std::to_string(step));
        path.push_back(net.add_channel(at, next));
        at = next;
      }
    }
    path.insert(path.end(), segments[i].begin(), segments[i].end());
    path.push_back(info.blocking);
    WORMSIM_ASSERT(net.is_walk(info.source, info.dest, path));
    info.path = path;
    routing_->add_path(routing::PathSpec{info.source, info.dest, path});
  }

  if (spec_.hub_completion) {
    const std::size_t n = net.node_count();
    // Hub links both ways for every node (reusing existing channels).
    for (std::size_t x = 0; x < n; ++x) {
      const NodeId node{x};
      if (node == nstar) continue;
      if (!net.find_channel(node, nstar)) net.add_channel(node, nstar);
      if (!net.find_channel(nstar, node)) net.add_channel(nstar, node);
    }
    // Routes for every still-unrouted ordered pair, via N*.
    for (std::size_t x = 0; x < n; ++x) {
      for (std::size_t y = 0; y < n; ++y) {
        if (x == y) continue;
        const NodeId from{x}, to{y};
        if (routing_->routes(from, to)) continue;
        routing::PathSpec route{from, to, {}};
        if (from != nstar) route.channels.push_back(
            *net.find_channel(from, nstar));
        if (to != nstar) route.channels.push_back(
            *net.find_channel(nstar, to));
        routing_->add_path(route);
      }
    }
  }
}

std::vector<sim::MessageSpec> CyclicFamily::message_specs(
    std::uint32_t extra_length) const {
  std::vector<sim::MessageSpec> specs;
  specs.reserve(messages_.size());
  for (const MessageInfo& info : messages_) {
    sim::MessageSpec spec;
    spec.src = info.source;
    spec.dst = info.dest;
    spec.length = static_cast<std::uint32_t>(info.params.hold) + extra_length;
    specs.push_back(std::move(spec));
  }
  return specs;
}

CyclicFamilySpec fig1_spec(bool hub_completion) {
  CyclicFamilySpec spec;
  spec.name = "cyclic-dependency-fig1";
  spec.messages = {{2, 3, true}, {3, 4, true}, {2, 3, true}, {3, 4, true}};
  spec.hub_completion = hub_completion;
  return spec;
}

CyclicFamilySpec fig2_spec(bool hub_completion) {
  CyclicFamilySpec spec;
  spec.name = "two-shared-fig2";
  spec.messages = {{2, 3, true}, {3, 4, true}};
  spec.hub_completion = hub_completion;
  return spec;
}

CyclicFamilySpec generalized_spec(int k, bool hub_completion) {
  // The deadlock-forming margin is governed by the access-length gap: after
  // an odd message releases c_s, the next (even) message must cover its
  // whole access path before the odd one crosses the even one's ring entry,
  // and the odd message is a_even - a_odd = k cycles too fast. The segment
  // lengths must scale with k as well — with constant segments a second
  // wedge mechanism (stalling a message inside the ring) has constant cost
  // and the tolerated delay plateaus at ~5 (measured; see
  // EXPERIMENTS.md). With both scalings the measured law is exactly
  // delta*(k) = k + 1, and k = 1 is Figure 1. Both of Section 6's features
  // hold: every message holds more ring channels than its access path, and
  // odd messages use fewer access channels than even ones.
  WORMSIM_EXPECTS(k >= 1);
  CyclicFamilySpec spec;
  spec.name = "generalized-k" + std::to_string(k);
  spec.messages = {{2, 2 + k, true},
                   {2 + k, 2 + 2 * k, true},
                   {2, 2 + k, true},
                   {2 + k, 2 + 2 * k, true}};
  spec.hub_completion = hub_completion;
  return spec;
}

}  // namespace wormsim::core
