#include "topo/datacenter.hpp"

#include <string>
#include <utility>

namespace wormsim::topo {

// ---------------------------------------------------------------------------
// FatTree
// ---------------------------------------------------------------------------

FatTree::FatTree(int k) : k_(k) {
  WORMSIM_EXPECTS_MSG(k >= 2 && k % 2 == 0, "fat-tree radix must be even");
  const int half = k / 2;
  const std::size_t hosts_per_pod = static_cast<std::size_t>(half) * half;
  const std::size_t host_total = hosts_per_pod * static_cast<std::size_t>(k);

  for (std::size_t h = 0; h < host_total; ++h)
    hosts_.push_back(net_.add_node("h" + std::to_string(h)));

  edge_base_ = net_.node_count();
  for (int pod = 0; pod < k; ++pod)
    for (int e = 0; e < half; ++e)
      net_.add_node("e" + std::to_string(pod) + "." + std::to_string(e));
  agg_base_ = net_.node_count();
  for (int pod = 0; pod < k; ++pod)
    for (int a = 0; a < half; ++a)
      net_.add_node("a" + std::to_string(pod) + "." + std::to_string(a));
  core_base_ = net_.node_count();
  for (int c = 0; c < half * half; ++c)
    net_.add_node("c" + std::to_string(c));

  // Host <-> edge.
  for (std::size_t h = 0; h < host_total; ++h) {
    const int pod = static_cast<int>(h / hosts_per_pod);
    const int e = static_cast<int>(h % hosts_per_pod) / half;
    net_.add_duplex(hosts_[h], edge_switch(pod, e));
  }
  // Edge <-> agg: full bipartite within each pod.
  for (int pod = 0; pod < k; ++pod)
    for (int e = 0; e < half; ++e)
      for (int a = 0; a < half; ++a)
        net_.add_duplex(edge_switch(pod, e), agg_switch(pod, a));
  // Agg <-> core: agg switch a of every pod reaches cores
  // [a*half, (a+1)*half).
  for (int pod = 0; pod < k; ++pod)
    for (int a = 0; a < half; ++a)
      for (int j = 0; j < half; ++j)
        net_.add_duplex(agg_switch(pod, a), core_switch(a * half + j));
}

NodeId FatTree::edge_switch(int pod, int index) const {
  WORMSIM_EXPECTS(pod >= 0 && pod < k_ && index >= 0 && index < k_ / 2);
  return NodeId{edge_base_ + static_cast<std::size_t>(pod) *
                                 static_cast<std::size_t>(k_ / 2) +
                static_cast<std::size_t>(index)};
}

NodeId FatTree::agg_switch(int pod, int index) const {
  WORMSIM_EXPECTS(pod >= 0 && pod < k_ && index >= 0 && index < k_ / 2);
  return NodeId{agg_base_ + static_cast<std::size_t>(pod) *
                                static_cast<std::size_t>(k_ / 2) +
                static_cast<std::size_t>(index)};
}

NodeId FatTree::core_switch(int index) const {
  WORMSIM_EXPECTS(index >= 0 && index < (k_ / 2) * (k_ / 2));
  return NodeId{core_base_ + static_cast<std::size_t>(index)};
}

FatTree::Role FatTree::role(NodeId n) const {
  const std::size_t i = n.index();
  WORMSIM_EXPECTS(i < net_.node_count());
  if (i < edge_base_) return Role::kHost;
  if (i < agg_base_) return Role::kEdge;
  if (i < core_base_) return Role::kAggregation;
  return Role::kCore;
}

int FatTree::pod_of(NodeId n) const {
  const std::size_t i = n.index();
  const std::size_t half = static_cast<std::size_t>(k_) / 2;
  switch (role(n)) {
    case Role::kHost:
      return static_cast<int>(i / (half * half));
    case Role::kEdge:
      return static_cast<int>((i - edge_base_) / half);
    case Role::kAggregation:
      return static_cast<int>((i - agg_base_) / half);
    case Role::kCore:
      break;
  }
  WORMSIM_UNREACHABLE("core switches belong to no pod");
}

int FatTree::switch_index(NodeId n) const {
  const std::size_t i = n.index();
  const std::size_t half = static_cast<std::size_t>(k_) / 2;
  switch (role(n)) {
    case Role::kEdge:
      return static_cast<int>((i - edge_base_) % half);
    case Role::kAggregation:
      return static_cast<int>((i - agg_base_) % half);
    case Role::kCore:
      return static_cast<int>(i - core_base_);
    case Role::kHost:
      break;
  }
  WORMSIM_UNREACHABLE("hosts have no switch index");
}

// ---------------------------------------------------------------------------
// Dragonfly
// ---------------------------------------------------------------------------

std::size_t DragonflySpec::terminal_count() const {
  return static_cast<std::size_t>(groups) *
         static_cast<std::size_t>(routers_per_group) *
         static_cast<std::size_t>(terminals_per_router);
}

Dragonfly::Dragonfly(DragonflySpec spec) : spec_(spec) {
  const int a = spec_.routers_per_group;
  const int h = spec_.global_links;
  const int g = spec_.groups;
  const int p = spec_.terminals_per_router;
  WORMSIM_EXPECTS_MSG(a >= 2 && h >= 1 && p >= 1, "bad dragonfly spec");
  WORMSIM_EXPECTS_MSG(g >= 2 && g <= a * h + 1,
                      "dragonfly groups must satisfy 2 <= g <= a*h + 1");

  const std::size_t terminal_total = spec_.terminal_count();
  for (std::size_t t = 0; t < terminal_total; ++t)
    terminals_.push_back(net_.add_node("t" + std::to_string(t)));

  router_base_ = net_.node_count();
  for (int grp = 0; grp < g; ++grp)
    for (int i = 0; i < a; ++i)
      net_.add_node("r" + std::to_string(grp) + "." + std::to_string(i));

  // Terminal <-> router.
  for (std::size_t t = 0; t < terminal_total; ++t) {
    const int grp = static_cast<int>(t / static_cast<std::size_t>(a * p));
    const int i =
        static_cast<int>(t % static_cast<std::size_t>(a * p)) / p;
    net_.add_duplex(terminals_[t], router(grp, i));
  }
  // Local channels: complete digraph within each group, lanes 0 and 1.
  for (int grp = 0; grp < g; ++grp)
    for (int i = 0; i < a; ++i)
      for (int j = 0; j < a; ++j) {
        if (i == j) continue;
        net_.add_channel(router(grp, i), router(grp, j), 0);
        net_.add_channel(router(grp, i), router(grp, j), 1);
      }
  // Global links: port q of group A reaches group (A + q + 1) mod g; the
  // duplex pair is added once per unordered group pair (from the side with
  // the smaller group id).
  for (int A = 0; A < g; ++A)
    for (int q = 0; q + 1 < g; ++q) {
      const int B = (A + q + 1) % g;
      if (B < A) continue;
      const int back = g - q - 2;  // B's port toward A
      net_.add_duplex(router(A, q / h), router(B, back / h));
    }
}

NodeId Dragonfly::router(int group, int index) const {
  WORMSIM_EXPECTS(group >= 0 && group < spec_.groups && index >= 0 &&
                  index < spec_.routers_per_group);
  return NodeId{router_base_ +
                static_cast<std::size_t>(group) *
                    static_cast<std::size_t>(spec_.routers_per_group) +
                static_cast<std::size_t>(index)};
}

int Dragonfly::group_of_router(NodeId r) const {
  WORMSIM_EXPECTS(r.index() >= router_base_);
  return static_cast<int>((r.index() - router_base_) /
                          static_cast<std::size_t>(spec_.routers_per_group));
}

int Dragonfly::index_of_router(NodeId r) const {
  WORMSIM_EXPECTS(r.index() >= router_base_);
  return static_cast<int>((r.index() - router_base_) %
                          static_cast<std::size_t>(spec_.routers_per_group));
}

NodeId Dragonfly::gateway(int group, int target_group) const {
  WORMSIM_EXPECTS(group != target_group);
  const int g = spec_.groups;
  const int q = ((target_group - group - 1) % g + g) % g;
  WORMSIM_EXPECTS(q + 1 < g);
  return router(group, q / spec_.global_links);
}

}  // namespace wormsim::topo
