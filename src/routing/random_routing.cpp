#include "routing/random_routing.hpp"

#include <algorithm>
#include <vector>

namespace wormsim::routing {

namespace {

/// Scratch vectors one generator reuses across all of its in-trees.
struct InTreeScratch {
  std::vector<int> dist_to_root;
  std::vector<NodeId> queue;  ///< BFS order; consumed front to back
  std::vector<ChannelId> candidates;
};

/// Builds an in-tree toward `root` and writes it into `table`. For each node
/// v != root, chooses one outgoing channel of v whose head is v's tree
/// parent. `candidate_ok(channel, dist)` filters which channels may serve as
/// tree edges given the BFS distance-to-root array.
template <typename ChannelFilter>
void build_in_tree(const topo::Network& net, NodeId root, util::Rng& rng,
                   NodeTable& table, InTreeScratch& scratch,
                   ChannelFilter candidate_ok) {
  const std::size_t n = net.node_count();

  // Distance from every node TO the root, over reversed channels.
  std::vector<int>& dist_to_root = scratch.dist_to_root;
  dist_to_root.assign(n, -1);
  std::vector<NodeId>& queue = scratch.queue;
  queue.assign(1, root);
  dist_to_root[root.index()] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId v = queue[head];
    for (const ChannelId c : net.channels_into(v)) {
      const NodeId u = net.channel(c).src;
      if (dist_to_root[u.index()] < 0) {
        dist_to_root[u.index()] = dist_to_root[v.index()] + 1;
        queue.push_back(u);
      }
    }
  }

  for (std::size_t vi = 0; vi < n; ++vi) {
    const NodeId v{vi};
    if (v == root) continue;
    WORMSIM_EXPECTS_MSG(dist_to_root[vi] > 0,
                        "network is not strongly connected");
    // Candidate out-channels of v permitted as tree edges.
    std::vector<ChannelId>& candidates = scratch.candidates;
    candidates.clear();
    for (const ChannelId c : net.channels_from(v))
      if (candidate_ok(c, dist_to_root)) candidates.push_back(c);
    WORMSIM_ASSERT_MSG(!candidates.empty(),
                       "no admissible tree edge; filter too strict");
    const ChannelId pick =
        candidates[rng.below(candidates.size())];
    table.set(v, root, pick);
  }
}

}  // namespace

std::unique_ptr<NodeTable> random_tree_routing(const topo::Network& net,
                                               util::Rng& rng) {
  auto table = std::make_unique<NodeTable>(net, "random-tree");
  const std::size_t n = net.node_count();
  std::vector<char> attached;
  std::vector<std::pair<NodeId, ChannelId>> options;
  for (std::size_t di = 0; di < n; ++di) {
    const NodeId root{di};
    // Randomized-Prim in-tree: grow the attached set from the root; any node
    // with a channel into the attached set may join through a random such
    // channel. Tree paths may be arbitrarily longer than shortest paths, but
    // every route terminates because tree edges point strictly "inward".
    attached.assign(n, 0);
    attached[root.index()] = 1;
    std::size_t attached_count = 1;
    while (attached_count < n) {
      // Collect all (node, channel) frontier options.
      options.clear();
      for (std::size_t vi = 0; vi < n; ++vi) {
        if (attached[vi]) continue;
        const NodeId v{vi};
        for (const ChannelId c : net.channels_from(v))
          if (attached[net.channel(c).dst.index()])
            options.emplace_back(v, c);
      }
      WORMSIM_EXPECTS_MSG(!options.empty(),
                          "network is not strongly connected");
      const auto& [v, c] = options[rng.below(options.size())];
      table->set(v, root, c);
      attached[v.index()] = 1;
      ++attached_count;
    }
  }
  return table;
}

std::unique_ptr<NodeTable> random_minimal_routing(const topo::Network& net,
                                                  util::Rng& rng) {
  auto table = std::make_unique<NodeTable>(net, "random-minimal");
  InTreeScratch scratch;
  for (std::size_t di = 0; di < net.node_count(); ++di) {
    const NodeId root{di};
    build_in_tree(net, root, rng, *table, scratch,
                  [&net](ChannelId c, const std::vector<int>& dist) {
                    const topo::Channel& ch = net.channel(c);
                    return dist[ch.dst.index()] == dist[ch.src.index()] - 1;
                  });
  }
  return table;
}

}  // namespace wormsim::routing
