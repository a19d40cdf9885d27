// Channel dependency graph (Dally & Seitz 1987).
//
// Vertices are the channels of the network; there is a directed edge
// (c1, c2) iff the routing algorithm permits some message to use c2
// immediately after c1 — i.e. R(c1, d) = c2 for some destination d reachable
// through c1. The classical Dally–Seitz theorem says an *acyclic* CDG
// guarantees deadlock freedom; the paper under reproduction shows the
// converse fails even for oblivious routing: a CDG cycle may be an
// unreachable configuration.
//
// Each edge carries its witnesses — the (source, destination) pairs whose
// route induces the dependency — because the reachability analysis in
// src/analysis needs to know *which messages* can exercise a cycle, not just
// that the cycle exists.
//
// Storage is flat: one array of successors, sorted within each channel's
// range, and one array of witnesses, indexed by per-edge ranges. An edge's
// witnesses keep the order in which the build first traced them (the order
// of `pairs`, or of all (src, dst) pairs by source then destination), with
// duplicates dropped. The campaign's cycle probes take the first witness of
// each cycle edge, so that order reaches its recorded search results.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "routing/adaptive.hpp"
#include "routing/routing.hpp"

namespace wormsim::cdg {

/// A (source, destination) routed pair whose path induces a dependency.
struct Witness {
  NodeId src;
  NodeId dst;
  bool operator==(const Witness&) const = default;
};

/// Immutable channel dependency graph extracted from a routing algorithm.
class ChannelDependencyGraph {
 public:
  /// Builds the CDG by tracing every routed (src, dst) pair of `alg`.
  /// Aborts if any route fails to terminate (that is a routing bug, not a
  /// CDG property). Pairs may optionally be restricted to `pairs`; by
  /// default all ordered pairs the algorithm routes are traced.
  static ChannelDependencyGraph build(const routing::RoutingAlgorithm& alg);
  static ChannelDependencyGraph build(const routing::RoutingAlgorithm& alg,
                                      std::span<const Witness> pairs);

  /// Adaptive variant: edges are (c, c') with c' in R(c, d) for every
  /// channel c reachable by some (src, dst) pair's candidate tree (BFS over
  /// the routing relation rather than a single traced path).
  static ChannelDependencyGraph build(const routing::AdaptiveRouting& alg);

  [[nodiscard]] const topo::Network& net() const { return *net_; }
  [[nodiscard]] std::size_t vertex_count() const {
    return succ_begin_.size() - 1;
  }
  [[nodiscard]] std::size_t edge_count() const { return succ_.size(); }

  /// Channels reachable in one dependency step from `c` (sorted, unique).
  [[nodiscard]] std::span<const ChannelId> successors(ChannelId c) const;

  [[nodiscard]] bool has_edge(ChannelId from, ChannelId to) const;

  /// Witness pairs for edge (from, to); empty when the edge is absent.
  [[nodiscard]] std::span<const Witness> witnesses(ChannelId from,
                                                   ChannelId to) const;

  /// True iff the CDG has no directed cycle.
  [[nodiscard]] bool acyclic() const;

  /// Strongly connected components with >= 2 vertices, or a single vertex
  /// with a self-loop (i.e. the components that can contain cycles).
  [[nodiscard]] std::vector<std::vector<ChannelId>> cyclic_sccs() const;

  /// All elementary cycles (Johnson's algorithm), each as a channel sequence
  /// c0 -> c1 -> ... -> c0 (first vertex not repeated at the end). Stops
  /// after `max_cycles` to bound output on dense graphs.
  [[nodiscard]] std::vector<std::vector<ChannelId>> elementary_cycles(
      std::size_t max_cycles = 100'000) const;

  /// Dally–Seitz certificate: a numbering of channels such that every
  /// dependency strictly increases. Exists iff the CDG is acyclic.
  [[nodiscard]] std::optional<std::vector<std::uint32_t>>
  topological_numbering() const;

  /// Checks a proposed numbering: every edge (a, b) must have
  /// numbering[a] < numbering[b].
  [[nodiscard]] bool verify_numbering(
      std::span<const std::uint32_t> numbering) const;

  /// Graphviz rendering; cyclic SCC members are highlighted.
  [[nodiscard]] std::string to_dot(std::string_view name = "cdg") const;

 private:
  /// One traced dependency: `witness`'s route uses `to` right after `from`.
  struct Dependency {
    ChannelId from;
    ChannelId to;
    Witness witness;
  };

  /// Sorts `traced`, given in trace order, into the flat arrays.
  ChannelDependencyGraph(const topo::Network& net,
                         std::vector<Dependency> traced);

  [[nodiscard]] std::span<const ChannelId> successors_of(std::size_t v) const {
    return {succ_.data() + succ_begin_[v], succ_.data() + succ_begin_[v + 1]};
  }
  /// Index of edge (from, to) in succ_, or nullopt when it is absent.
  [[nodiscard]] std::optional<std::size_t> edge_index(ChannelId from,
                                                      ChannelId to) const;

  const topo::Network* net_;
  std::vector<std::uint32_t> succ_begin_;     ///< per channel, plus one
  std::vector<ChannelId> succ_;               ///< one entry per edge
  std::vector<std::uint32_t> witness_begin_;  ///< per edge, plus one
  std::vector<Witness> witnesses_;
};

}  // namespace wormsim::cdg
