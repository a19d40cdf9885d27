#include "cdg/cdg.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace wormsim::cdg {

ChannelDependencyGraph::ChannelDependencyGraph(
    const topo::Network& net, std::vector<Dependency> traced)
    : net_(&net), succ_begin_(net.channel_count() + 1, 0) {
  // Stable, so that each edge's witnesses stay in trace order.
  std::stable_sort(traced.begin(), traced.end(),
                   [](const Dependency& a, const Dependency& b) {
                     return a.from != b.from ? a.from < b.from : a.to < b.to;
                   });
  const auto starts_edge = [&traced](std::size_t i) {
    return i == 0 || traced[i].from != traced[i - 1].from ||
           traced[i].to != traced[i - 1].to;
  };
  std::size_t edges = 0;
  for (std::size_t i = 0; i < traced.size(); ++i) edges += starts_edge(i);
  succ_.reserve(edges);
  witness_begin_.reserve(edges + 1);
  witnesses_.reserve(traced.size());
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const Dependency& d = traced[i];
    if (starts_edge(i)) {
      ++succ_begin_[d.from.index() + 1];
      succ_.push_back(d.to);
      witness_begin_.push_back(static_cast<std::uint32_t>(witnesses_.size()));
    }
    const auto listed = witnesses_.begin() + witness_begin_.back();
    if (std::find(listed, witnesses_.end(), d.witness) == witnesses_.end())
      witnesses_.push_back(d.witness);
  }
  witness_begin_.push_back(static_cast<std::uint32_t>(witnesses_.size()));
  for (std::size_t c = 1; c < succ_begin_.size(); ++c)
    succ_begin_[c] += succ_begin_[c - 1];
}

ChannelDependencyGraph ChannelDependencyGraph::build(
    const routing::RoutingAlgorithm& alg) {
  std::vector<Witness> pairs;
  const std::size_t n = alg.net().node_count();
  pairs.reserve(n * (n - 1));
  for (std::size_t s = 0; s < n; ++s)
    for (std::size_t d = 0; d < n; ++d)
      if (s != d && alg.routes(NodeId{s}, NodeId{d}))
        pairs.push_back(Witness{NodeId{s}, NodeId{d}});
  return build(alg, pairs);
}

ChannelDependencyGraph ChannelDependencyGraph::build(
    const routing::AdaptiveRouting& alg) {
  std::vector<Dependency> traced;
  const std::size_t n = alg.net().node_count();
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t d = 0; d < n; ++d) {
      if (s == d || !alg.routes(NodeId{s}, NodeId{d})) continue;
      const Witness w{NodeId{s}, NodeId{d}};
      // BFS over the candidate relation from the initial channels.
      std::unordered_set<std::uint32_t> seen;
      std::vector<ChannelId> frontier = alg.initial_channels(w.src, w.dst);
      for (const ChannelId c : frontier) seen.insert(c.value());
      while (!frontier.empty()) {
        std::vector<ChannelId> next_frontier;
        for (const ChannelId c : frontier) {
          if (alg.net().channel(c).dst == w.dst) continue;  // delivered
          for (const ChannelId succ : alg.next_channels(c, w.dst)) {
            traced.push_back({c, succ, w});
            if (seen.insert(succ.value()).second)
              next_frontier.push_back(succ);
          }
        }
        frontier = std::move(next_frontier);
      }
    }
  }
  return ChannelDependencyGraph(alg.net(), std::move(traced));
}

ChannelDependencyGraph ChannelDependencyGraph::build(
    const routing::RoutingAlgorithm& alg, std::span<const Witness> pairs) {
  std::vector<Dependency> traced;
  traced.reserve(2 * pairs.size());
  std::vector<ChannelId> path;
  for (const Witness& w : pairs) {
    const bool terminates = routing::trace_path(alg, w.src, w.dst, path);
    WORMSIM_EXPECTS_MSG(terminates,
                        "route does not terminate; cannot build CDG");
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
      traced.push_back({path[i], path[i + 1], w});
  }
  return ChannelDependencyGraph(alg.net(), std::move(traced));
}

std::span<const ChannelId> ChannelDependencyGraph::successors(
    ChannelId c) const {
  WORMSIM_EXPECTS(c.valid() && c.index() < vertex_count());
  return successors_of(c.index());
}

std::optional<std::size_t> ChannelDependencyGraph::edge_index(
    ChannelId from, ChannelId to) const {
  if (from.index() >= vertex_count()) return std::nullopt;
  const auto succ = successors_of(from.index());
  const auto it = std::lower_bound(succ.begin(), succ.end(), to);
  if (it == succ.end() || *it != to) return std::nullopt;
  return succ_begin_[from.index()] +
         static_cast<std::size_t>(it - succ.begin());
}

bool ChannelDependencyGraph::has_edge(ChannelId from, ChannelId to) const {
  return edge_index(from, to).has_value();
}

std::span<const Witness> ChannelDependencyGraph::witnesses(
    ChannelId from, ChannelId to) const {
  const auto edge = edge_index(from, to);
  if (!edge) return {};
  return {witnesses_.data() + witness_begin_[*edge],
          witnesses_.data() + witness_begin_[*edge + 1]};
}

bool ChannelDependencyGraph::acyclic() const {
  return topological_numbering().has_value();
}

std::optional<std::vector<std::uint32_t>>
ChannelDependencyGraph::topological_numbering() const {
  // Kahn's algorithm; the discovered order doubles as the Dally–Seitz
  // channel numbering (every dependency strictly increases).
  const std::size_t n = vertex_count();
  std::vector<std::uint32_t> indegree(n, 0);
  for (const ChannelId c : succ_) ++indegree[c.index()];

  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < n; ++i)
    if (indegree[i] == 0) ready.push_back(i);

  std::vector<std::uint32_t> numbering(n, 0);
  std::uint32_t next_number = 0;
  std::size_t processed = 0;
  while (!ready.empty()) {
    const std::size_t v = ready.back();
    ready.pop_back();
    numbering[v] = next_number++;
    ++processed;
    for (const ChannelId c : successors_of(v))
      if (--indegree[c.index()] == 0) ready.push_back(c.index());
  }
  if (processed != n) return std::nullopt;  // a cycle remains
  return numbering;
}

bool ChannelDependencyGraph::verify_numbering(
    std::span<const std::uint32_t> numbering) const {
  if (numbering.size() != vertex_count()) return false;
  for (std::size_t v = 0; v < vertex_count(); ++v)
    for (const ChannelId c : successors_of(v))
      if (numbering[v] >= numbering[c.index()]) return false;
  return true;
}

std::vector<std::vector<ChannelId>> ChannelDependencyGraph::cyclic_sccs()
    const {
  // Iterative Tarjan.
  const std::size_t n = vertex_count();
  constexpr std::uint32_t kUnvisited = 0xffffffffu;
  std::vector<std::uint32_t> index(n, kUnvisited), lowlink(n, 0);
  std::vector<char> on_stack(n, 0);
  std::vector<std::size_t> stack;
  std::vector<std::vector<ChannelId>> result;
  std::uint32_t next_index = 0;

  struct Frame {
    std::size_t v;
    std::size_t child = 0;
  };

  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    std::vector<Frame> frames{{root}};
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = 1;

    while (!frames.empty()) {
      Frame& f = frames.back();
      const auto succ = successors_of(f.v);
      if (f.child < succ.size()) {
        const std::size_t w = succ[f.child++].index();
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = 1;
          frames.push_back(Frame{w});
        } else if (on_stack[w]) {
          lowlink[f.v] = std::min(lowlink[f.v], index[w]);
        }
      } else {
        if (lowlink[f.v] == index[f.v]) {
          std::vector<ChannelId> scc;
          std::size_t w;
          do {
            w = stack.back();
            stack.pop_back();
            on_stack[w] = 0;
            scc.push_back(ChannelId{w});
          } while (w != f.v);
          const bool self_loop =
              scc.size() == 1 && has_edge(scc[0], scc[0]);
          if (scc.size() >= 2 || self_loop) {
            std::sort(scc.begin(), scc.end());
            result.push_back(std::move(scc));
          }
        }
        const std::size_t v = f.v;
        frames.pop_back();
        if (!frames.empty())
          lowlink[frames.back().v] =
              std::min(lowlink[frames.back().v], lowlink[v]);
      }
    }
  }
  return result;
}

std::vector<std::vector<ChannelId>> ChannelDependencyGraph::elementary_cycles(
    std::size_t max_cycles) const {
  // Johnson's algorithm restricted to each cyclic SCC.
  std::vector<std::vector<ChannelId>> cycles;

  for (const auto& scc : cyclic_sccs()) {
    std::unordered_set<std::uint32_t> in_scc;
    for (const ChannelId c : scc) in_scc.insert(c.value());

    // Johnson processes vertices in increasing order, removing each start
    // vertex after exploring all cycles through it.
    std::unordered_set<std::uint32_t> removed;
    for (const ChannelId start : scc) {
      if (cycles.size() >= max_cycles) return cycles;

      std::unordered_set<std::uint32_t> blocked;
      std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> block_map;
      std::vector<ChannelId> path;

      // Recursive circuit search, implemented with an explicit lambda
      // (depth bounded by SCC size, which is small for our networks).
      auto unblock = [&](auto&& self, std::uint32_t v) -> void {
        blocked.erase(v);
        auto it = block_map.find(v);
        if (it == block_map.end()) return;
        const auto deps = std::move(it->second);
        block_map.erase(it);
        for (const std::uint32_t w : deps)
          if (blocked.contains(w)) self(self, w);
      };

      auto circuit = [&](auto&& self, ChannelId v) -> bool {
        bool found = false;
        path.push_back(v);
        blocked.insert(v.value());
        for (const ChannelId w : successors_of(v.index())) {
          if (!in_scc.contains(w.value()) || removed.contains(w.value()))
            continue;
          if (w == start) {
            cycles.push_back(path);
            found = true;
            if (cycles.size() >= max_cycles) break;
          } else if (!blocked.contains(w.value())) {
            if (self(self, w)) found = true;
            if (cycles.size() >= max_cycles) break;
          }
        }
        if (found) {
          unblock(unblock, v.value());
        } else {
          for (const ChannelId w : successors_of(v.index())) {
            if (!in_scc.contains(w.value()) || removed.contains(w.value()))
              continue;
            block_map[w.value()].push_back(v.value());
          }
        }
        path.pop_back();
        return found;
      };

      circuit(circuit, start);
      removed.insert(start.value());
    }
  }
  return cycles;
}

std::string ChannelDependencyGraph::to_dot(std::string_view name) const {
  std::unordered_set<std::uint32_t> cyclic;
  for (const auto& scc : cyclic_sccs())
    for (const ChannelId c : scc) cyclic.insert(c.value());

  std::ostringstream os;
  os << "digraph \"" << name << "\" {\n";
  for (std::size_t i = 0; i < vertex_count(); ++i) {
    os << "  c" << i << " [label=\"" << net_->channel(ChannelId{i}).name
       << "\"";
    if (cyclic.contains(static_cast<std::uint32_t>(i)))
      os << ", color=red, penwidth=2";
    os << "];\n";
  }
  for (std::size_t i = 0; i < vertex_count(); ++i)
    for (const ChannelId c : successors_of(i))
      os << "  c" << i << " -> c" << c.value() << ";\n";
  os << "}\n";
  return os.str();
}

}  // namespace wormsim::cdg
