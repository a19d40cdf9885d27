// Standard topology builders: rings, k-ary n-dimensional meshes and tori
// (k-ary n-cubes), hypercubes and complete graphs.
//
// Mesh/torus construction returns a Grid, which keeps the coordinate system
// alongside the Network so routing algorithms (dimension-order, turn model,
// Dally–Seitz virtual-channel torus routing) can translate node ids to
// coordinates without recomputing strides.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "topo/network.hpp"

namespace wormsim::topo {

/// Shape of a regular grid network.
struct GridSpec {
  std::vector<int> dims;    ///< radix per dimension, e.g. {4, 4} = 4x4
  bool wraparound = false;  ///< true => torus (k-ary n-cube), false => mesh
  std::uint16_t lanes = 1;  ///< virtual channels per unidirectional link

  [[nodiscard]] std::size_t node_count() const;
  [[nodiscard]] std::size_t dimensions() const { return dims.size(); }
};

/// A mesh or torus network plus its coordinate system.
class Grid {
 public:
  explicit Grid(GridSpec spec);

  [[nodiscard]] const GridSpec& spec() const { return spec_; }
  [[nodiscard]] const Network& net() const& { return net_; }
  /// On a temporary (`make_mesh(...).net()`), moves the network out.
  [[nodiscard]] Network net() && { return std::move(net_); }

  /// Node at the given coordinates (size must equal dimensions()).
  [[nodiscard]] NodeId node_at(std::span<const int> coords) const;
  /// Coordinates of a node.
  [[nodiscard]] std::vector<int> coords_of(NodeId n) const;
  /// Coordinate of node `n` along dimension `dim`.
  [[nodiscard]] int coord(NodeId n, std::size_t dim) const;

  /// The neighbor of `n` one step along `dim` in direction `dir` (+1/-1).
  /// Wraps on a torus; returns invalid on a mesh boundary.
  [[nodiscard]] NodeId neighbor(NodeId n, std::size_t dim, int dir) const;

  /// Channel from `n` to its (dim, dir) neighbor on virtual lane `lane`.
  [[nodiscard]] ChannelId link(NodeId n, std::size_t dim, int dir,
                               std::uint16_t lane = 0) const;

  /// Minimal hop count between two nodes under the grid metric.
  [[nodiscard]] int grid_distance(NodeId a, NodeId b) const;

 private:
  GridSpec spec_;
  Network net_;
  std::vector<std::size_t> strides_;
};

/// Unidirectional ring of n nodes: n0 -> n1 -> ... -> n0, `lanes` virtual
/// channels per link. The canonical CDG-cycle example of Dally & Seitz.
Network make_unidirectional_ring(int n, std::uint16_t lanes = 1);

/// Bidirectional ring (equivalently a 1-D torus with duplex links).
Network make_bidirectional_ring(int n, std::uint16_t lanes = 1);

/// k-ary n-dimensional mesh with duplex links.
Grid make_mesh(std::vector<int> dims, std::uint16_t lanes = 1);

/// k-ary n-dimensional torus (k-ary n-cube) with duplex links.
Grid make_torus(std::vector<int> dims, std::uint16_t lanes = 1);

/// n-dimensional binary hypercube (2^n nodes, duplex links per dimension).
Network make_hypercube(int dimensions);

/// Complete directed graph on n nodes (every ordered pair connected).
Network make_complete(int n);

}  // namespace wormsim::topo
