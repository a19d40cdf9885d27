// Differential test of the CDG's flat storage against a plain reference.
//
// The reference traces every routed pair with routing::trace_path into an
// ordered map from edge to witness list, so it shares none of the CDG's
// sorting, ranges or deduplication. Over random N x N -> C algorithms drawn
// from the campaign's topology mix (both generator flavors, chords, two
// lanes), every query must agree, including the order of each edge's
// witnesses: the campaign's cycle probes take an edge's first witness, so
// that order reaches the recorded search results.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "cdg/cdg.hpp"
#include "routing/node_table.hpp"
#include "routing/random_routing.hpp"
#include "topo/builders.hpp"

namespace wormsim::cdg {
namespace {

using Edge = std::pair<ChannelId, ChannelId>;
using Reference = std::map<Edge, std::vector<Witness>>;

int draw(util::Rng& rng, int lo, int hi) {
  return static_cast<int>(rng.range(lo, hi));
}

std::uint16_t lanes(util::Rng& rng) {
  return static_cast<std::uint16_t>(draw(rng, 1, 2));
}

/// One topology of the campaign's random-algorithm mix, chords included.
topo::Network random_topology(util::Rng& rng) {
  topo::Network net;
  bool chordable = true;
  switch (draw(rng, 0, 5)) {
    case 0: {
      const int nodes = draw(rng, 3, 7);
      net = topo::make_unidirectional_ring(nodes, lanes(rng));
      break;
    }
    case 1:
      net = topo::make_bidirectional_ring(draw(rng, 3, 6));
      break;
    case 2:
      if (rng.chance(0.3)) {
        net = topo::make_mesh({draw(rng, 3, 6)}).net();
      } else {
        const std::vector<int> dims{draw(rng, 2, 3), draw(rng, 2, 3)};
        net = topo::make_mesh(dims, lanes(rng)).net();
      }
      break;
    case 3:
      net = topo::make_torus({3, draw(rng, 2, 3)}).net();
      chordable = false;
      break;
    case 4:
      net = topo::make_hypercube(draw(rng, 2, 3));
      chordable = false;
      break;
    default:
      net = topo::make_complete(draw(rng, 3, 5));
      chordable = false;
      break;
  }
  if (chordable && rng.chance(0.4)) {
    const std::size_t n = net.node_count();
    for (int i = draw(rng, 1, 3); i > 0; --i) {
      const NodeId src{rng.below(n)};
      NodeId dst{rng.below(n)};
      if (dst == src) dst = NodeId{(src.index() + 1) % n};
      std::uint16_t lane = 0;
      while (net.find_channel(src, dst, lane)) ++lane;
      net.add_channel(src, dst, lane);
    }
  }
  return net;
}

Reference reference_edges(const routing::RoutingAlgorithm& alg) {
  Reference ref;
  const std::size_t n = alg.net().node_count();
  for (std::size_t s = 0; s < n; ++s)
    for (std::size_t d = 0; d < n; ++d) {
      if (s == d || !alg.routes(NodeId{s}, NodeId{d})) continue;
      const Witness w{NodeId{s}, NodeId{d}};
      const auto path = routing::trace_path(alg, w.src, w.dst);
      if (!path) {
        ADD_FAILURE() << "route does not terminate";
        continue;
      }
      for (std::size_t i = 0; i + 1 < path->size(); ++i) {
        auto& list = ref[{(*path)[i], (*path)[i + 1]}];
        if (std::find(list.begin(), list.end(), w) == list.end())
          list.push_back(w);
      }
    }
  return ref;
}

/// Successor lists in channel order, each sorted (the map's key order).
std::vector<std::vector<ChannelId>> reference_adjacency(const Reference& ref,
                                                        std::size_t channels) {
  std::vector<std::vector<ChannelId>> adj(channels);
  for (const auto& [edge, witnesses] : ref)
    adj[edge.first.index()].push_back(edge.second);
  return adj;
}

/// Kahn's algorithm with a LIFO ready list, as the Dally–Seitz numbering is
/// specified: ready channels start in index order, the last one is taken.
std::optional<std::vector<std::uint32_t>> reference_numbering(
    const std::vector<std::vector<ChannelId>>& adj) {
  std::vector<std::uint32_t> indegree(adj.size(), 0);
  for (const auto& succ : adj)
    for (const ChannelId c : succ) ++indegree[c.index()];
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < adj.size(); ++i)
    if (indegree[i] == 0) ready.push_back(i);
  std::vector<std::uint32_t> numbering(adj.size(), 0);
  std::uint32_t next = 0;
  while (!ready.empty()) {
    const std::size_t v = ready.back();
    ready.pop_back();
    numbering[v] = next++;
    for (const ChannelId c : adj[v])
      if (--indegree[c.index()] == 0) ready.push_back(c.index());
  }
  if (next != adj.size()) return std::nullopt;
  return numbering;
}

/// Every elementary cycle, rotated to start at its smallest channel, by
/// brute-force search from each start over larger channels only. nullopt
/// past `cap` cycles.
std::optional<std::set<std::vector<ChannelId>>> reference_cycles(
    const std::vector<std::vector<ChannelId>>& adj, std::size_t cap) {
  std::set<std::vector<ChannelId>> cycles;
  std::vector<ChannelId> path;
  std::vector<char> on_path(adj.size(), 0);
  bool over = false;
  const auto extend = [&](auto&& self, ChannelId start, ChannelId v) -> void {
    for (const ChannelId w : adj[v.index()]) {
      if (over) return;
      if (w == start) {
        cycles.insert(path);
        over = cycles.size() > cap;
      } else if (w > start && !on_path[w.index()]) {
        path.push_back(w);
        on_path[w.index()] = 1;
        self(self, start, w);
        on_path[w.index()] = 0;
        path.pop_back();
      }
    }
  };
  for (std::size_t s = 0; s < adj.size() && !over; ++s) {
    const ChannelId start{s};
    path.assign(1, start);
    extend(extend, start, start);
  }
  if (over) return std::nullopt;
  return cycles;
}

std::vector<ChannelId> rotated_to_min(std::vector<ChannelId> cycle) {
  std::rotate(cycle.begin(), std::min_element(cycle.begin(), cycle.end()),
              cycle.end());
  return cycle;
}

TEST(CdgStorage, MatchesTracedReferenceOnRandomAlgorithms) {
  constexpr int kAlgorithms = 500;
  constexpr std::size_t kCycleCap = 2'000;
  util::Rng rng(20261020);
  int cyclic = 0, acyclic = 0, cycles_compared = 0;
  for (int i = 0; i < kAlgorithms; ++i) {
    const topo::Network net = random_topology(rng);
    const bool minimal = rng.chance(0.5);
    const auto alg = minimal ? routing::random_minimal_routing(net, rng)
                             : routing::random_tree_routing(net, rng);
    SCOPED_TRACE(testing::Message()
                 << "algorithm " << i << " (" << alg->name() << ", "
                 << net.node_count() << " nodes, " << net.channel_count()
                 << " channels)");
    const ChannelDependencyGraph graph = ChannelDependencyGraph::build(*alg);
    const Reference ref = reference_edges(*alg);
    const std::size_t channels = net.channel_count();
    const auto adj = reference_adjacency(ref, channels);

    ASSERT_EQ(graph.vertex_count(), channels);
    ASSERT_EQ(graph.edge_count(), ref.size());
    for (std::size_t a = 0; a < channels; ++a) {
      const ChannelId from{a};
      const auto succ = graph.successors(from);
      ASSERT_EQ(std::vector<ChannelId>(succ.begin(), succ.end()), adj[a]);
      for (std::size_t b = 0; b < channels; ++b) {
        const ChannelId to{b};
        const auto it = ref.find({from, to});
        ASSERT_EQ(graph.has_edge(from, to), it != ref.end())
            << a << "->" << b;
        const auto got = graph.witnesses(from, to);
        const std::vector<Witness> want =
            it == ref.end() ? std::vector<Witness>{} : it->second;
        ASSERT_EQ(std::vector<Witness>(got.begin(), got.end()), want)
            << a << "->" << b;
      }
    }

    const auto numbering = graph.topological_numbering();
    ASSERT_EQ(numbering, reference_numbering(adj));
    ASSERT_EQ(graph.acyclic(), numbering.has_value());
    (numbering ? acyclic : cyclic) += 1;

    if (const auto want = reference_cycles(adj, kCycleCap)) {
      std::set<std::vector<ChannelId>> got;
      for (auto& cycle : graph.elementary_cycles())
        ASSERT_TRUE(got.insert(rotated_to_min(std::move(cycle))).second)
            << "a cycle was listed twice";
      ASSERT_EQ(got, *want);
      ++cycles_compared;
    }
  }
  // The mix must exercise both answers and the cycle comparison.
  EXPECT_GT(cyclic, kAlgorithms / 10);
  EXPECT_GT(acyclic, kAlgorithms / 10);
  EXPECT_GT(cycles_compared, kAlgorithms * 9 / 10);
}

TEST(CdgStorage, RestrictedPairsKeepFirstTracedOrderWithoutDuplicates) {
  // On a unidirectional 4-ring, route 3->1 takes channels 3->0, 0->1 and
  // route 2->1 takes 2->3, 3->0, 0->1, so both exercise the dependency
  // (3->0, 0->1). Tracing 3->1, then 2->1, then 3->1 again must list that
  // edge's witnesses as [3->1, 2->1].
  const topo::Network net = topo::make_unidirectional_ring(4);
  const auto next = [&](std::size_t s) {
    return *net.find_channel(NodeId{s}, NodeId{(s + 1) % 4});
  };
  routing::NodeTable table(net);
  for (std::size_t s = 0; s < 4; ++s)
    for (std::size_t d = 0; d < 4; ++d)
      if (s != d) table.set(NodeId{s}, NodeId{d}, next(s));
  const Witness w31{NodeId{3u}, NodeId{1u}};
  const Witness w21{NodeId{2u}, NodeId{1u}};
  const std::vector<Witness> pairs{w31, w21, w31};
  const auto graph = ChannelDependencyGraph::build(table, pairs);
  const auto both = graph.witnesses(next(3), next(0));
  EXPECT_EQ(std::vector<Witness>(both.begin(), both.end()),
            (std::vector<Witness>{w31, w21}));
  const auto only = graph.witnesses(next(2), next(3));
  EXPECT_EQ(std::vector<Witness>(only.begin(), only.end()),
            std::vector<Witness>{w21});
  EXPECT_EQ(graph.edge_count(), 2u);
  EXPECT_FALSE(graph.has_edge(next(0), next(1)));
}

}  // namespace
}  // namespace wormsim::cdg
