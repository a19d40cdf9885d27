// Datacenter-scale topologies: k-ary fat-trees (Clos), dragonflies, and
// full-mesh networks.
//
// These are the thousands-of-node fabrics the related work targets (Zahavi's
// InfiniBand dragonfly, the HOTI'25 full-mesh-without-VCs paper) and the
// reason the simulator grew an event-driven core: at this scale most
// channels are idle most cycles, and latency–throughput behavior under load
// is the question rather than paper-sized deadlock witnesses.
//
// Unlike the Grid builders, these fabrics distinguish *terminals* (hosts,
// where traffic originates and terminates) from *switches* (which only
// forward). Each class exposes its terminal list; the matching oblivious
// routing algorithms in routing/datacenter.hpp route terminal-to-terminal
// only, and the endpoint-aware workload generators draw sources and
// destinations from the terminal list.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "topo/network.hpp"

namespace wormsim::topo {

/// k-ary fat-tree (Al-Fares Clos): k pods, each with k/2 edge and k/2
/// aggregation switches; (k/2)^2 core switches; k/2 hosts per edge switch,
/// k^3/4 hosts total. All links duplex, lane 0. k must be even and >= 2.
///
/// Node numbering is arithmetic so routing needs no lookup tables:
///   hosts          [0, k^3/4)            host h: pod h / (k^2/4),
///                                        edge (h % (k^2/4)) / (k/2),
///                                        position h % (k/2)
///   edge switches  next k^2/2            edge  (pod, e) in row-major order
///   agg switches   next k^2/2            agg   (pod, a) in row-major order
///   core switches  next (k/2)^2          core c serves agg index c / (k/2)
///                                        in every pod
class FatTree {
 public:
  explicit FatTree(int k);

  [[nodiscard]] int k() const { return k_; }
  [[nodiscard]] const Network& net() const { return net_; }

  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }
  [[nodiscard]] std::span<const NodeId> hosts() const { return hosts_; }
  [[nodiscard]] NodeId host(std::size_t i) const { return hosts_[i]; }

  [[nodiscard]] bool is_host(NodeId n) const {
    return n.index() < hosts_.size();
  }

  /// Switch-layer accessors (pod-major indices as in the numbering above).
  [[nodiscard]] NodeId edge_switch(int pod, int index) const;
  [[nodiscard]] NodeId agg_switch(int pod, int index) const;
  [[nodiscard]] NodeId core_switch(int index) const;

  enum class Role : std::uint8_t { kHost, kEdge, kAggregation, kCore };
  [[nodiscard]] Role role(NodeId n) const;
  /// Pod of a host, edge, or aggregation node.
  [[nodiscard]] int pod_of(NodeId n) const;
  /// Index of an edge/aggregation switch within its pod, or of a core
  /// switch globally.
  [[nodiscard]] int switch_index(NodeId n) const;

  [[nodiscard]] int radix_half() const { return k_ / 2; }

 private:
  int k_;
  Network net_;
  std::vector<NodeId> hosts_;
  std::size_t edge_base_ = 0;  ///< node index of edge switch (0, 0)
  std::size_t agg_base_ = 0;
  std::size_t core_base_ = 0;
};

/// Dragonfly parameters (Kim/Dally notation): `a` routers per group, `h`
/// global links per router, `g` groups, `p` terminals per router. The
/// balanced full-scale fabric has g = a*h + 1 (one global link between
/// every pair of groups); any 2 <= g <= a*h + 1 is accepted, leaving
/// surplus global ports unused.
struct DragonflySpec {
  int routers_per_group = 4;   ///< a
  int global_links = 2;        ///< h, per router
  int groups = 9;              ///< g <= a*h + 1
  int terminals_per_router = 2;  ///< p

  [[nodiscard]] std::size_t terminal_count() const;
};

/// Dragonfly fabric: each group is a complete graph of `a` routers over TWO
/// local lanes (lane 0 carries pre-global and intra-group hops, lane 1
/// post-global hops — the minimal-routing deadlock-avoidance discipline:
/// terminal-up < local0 < global < local1 < terminal-down is a strictly
/// increasing channel ordering along every minimal route, so the CDG is
/// acyclic); one duplex global link between each pair of connected groups.
///
/// Global wiring is the standard absolute arrangement: group A's global
/// port q (router q / h, port q % h) connects to group (A + q + 1) mod g,
/// for q < g - 1; the reverse port in group B is g - q - 2.
///
/// Node numbering:
///   terminals  [0, g*a*p)   terminal t: group t / (a*p),
///                           router (t % (a*p)) / p
///   routers    next g*a     router (G, i) at terminal_count + G*a + i
class Dragonfly {
 public:
  explicit Dragonfly(DragonflySpec spec);

  [[nodiscard]] const DragonflySpec& spec() const { return spec_; }
  [[nodiscard]] const Network& net() const { return net_; }

  [[nodiscard]] std::size_t terminal_count() const { return terminals_.size(); }
  [[nodiscard]] std::span<const NodeId> terminals() const { return terminals_; }
  [[nodiscard]] NodeId terminal(std::size_t i) const { return terminals_[i]; }

  [[nodiscard]] bool is_terminal(NodeId n) const {
    return n.index() < terminals_.size();
  }

  [[nodiscard]] NodeId router(int group, int index) const;
  [[nodiscard]] int group_of_router(NodeId r) const;
  [[nodiscard]] int index_of_router(NodeId r) const;

  /// The router in `group` owning the global link toward `target_group`.
  [[nodiscard]] NodeId gateway(int group, int target_group) const;

 private:
  DragonflySpec spec_;
  Network net_;
  std::vector<NodeId> terminals_;
  std::size_t router_base_ = 0;
};

}  // namespace wormsim::topo
