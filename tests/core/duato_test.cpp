// Duato's theorem, decided mechanically (the paper's Section-2/Section-7
// context): an acyclic CDG is not necessary for deadlock-free ADAPTIVE
// routing. On a 2x2 mesh, four corner-turning messages can wedge fully
// adaptive single-lane routing (the adversary routes them into a turn
// cycle), but with Duato-style escape channels the exhaustive search proves
// the same traffic deadlock-free even though the CDG is still cyclic.
#include <gtest/gtest.h>

#include "analysis/deadlock_search.hpp"
#include "cdg/cdg.hpp"
#include "routing/adaptive.hpp"
#include "sim/simulator.hpp"

namespace wormsim::core {
namespace {

/// The four messages that chase each other around the 2x2 mesh's central
/// square: each travels to the diagonally opposite corner.
std::vector<sim::MessageSpec> corner_traffic(const topo::Grid& grid,
                                             std::uint32_t length) {
  const auto at = [&grid](int x, int y) {
    const int c[2] = {x, y};
    return grid.node_at(c);
  };
  return {
      {at(0, 0), at(1, 1), length, 0},
      {at(1, 0), at(0, 1), length, 0},
      {at(1, 1), at(0, 0), length, 0},
      {at(0, 1), at(1, 0), length, 0},
  };
}

TEST(Duato, SingleLaneFullyAdaptiveWedges) {
  const topo::Grid grid = topo::make_mesh({2, 2});
  const routing::MinimalAdaptiveMesh alg(grid);
  const auto result = analysis::find_deadlock(
      alg, corner_traffic(grid, 1), analysis::AdversaryModel::kSynchronous,
      {});
  EXPECT_TRUE(result.deadlock_found);
  EXPECT_EQ(result.deadlock_cycle.size(), 4u);
}

TEST(Duato, EscapeChannelsProveTheSameTrafficSafe) {
  const topo::Grid grid = topo::make_mesh({2, 2}, 2);
  const routing::DuatoFullyAdaptiveMesh alg(grid);
  // The CDG still has cycles (the adaptive lane), yet no deadlock is
  // reachable: whenever a header is blocked on adaptive channels its
  // escape channel eventually frees (the escape subnetwork is acyclic),
  // and the synchronous model forces it to take any free candidate.
  EXPECT_FALSE(cdg::ChannelDependencyGraph::build(alg).acyclic());
  const auto result = analysis::find_deadlock(
      alg, corner_traffic(grid, 1), analysis::AdversaryModel::kSynchronous,
      {});
  EXPECT_FALSE(result.deadlock_found);
  EXPECT_TRUE(result.exhausted);  // a proof on this instance
}

TEST(Duato, EscapeSafetyHoldsForLongerWorms) {
  const topo::Grid grid = topo::make_mesh({2, 2}, 2);
  const routing::DuatoFullyAdaptiveMesh alg(grid);
  for (const std::uint32_t length : {2u, 3u}) {
    const auto result = analysis::find_deadlock(
        alg, corner_traffic(grid, length),
        analysis::AdversaryModel::kSynchronous, {});
    EXPECT_FALSE(result.deadlock_found) << "length " << length;
    EXPECT_TRUE(result.exhausted) << "length " << length;
  }
}

TEST(Duato, SingleLaneWedgeAlsoAtLongerLengths) {
  const topo::Grid grid = topo::make_mesh({2, 2});
  const routing::MinimalAdaptiveMesh alg(grid);
  const auto result = analysis::find_deadlock(
      alg, corner_traffic(grid, 2), analysis::AdversaryModel::kSynchronous,
      {});
  EXPECT_TRUE(result.deadlock_found);
}

TEST(Duato, WestFirstAdaptiveIsSafeWithoutExtraLanes) {
  // The turn-model alternative: restrict turns instead of adding escape
  // lanes; single lane, acyclic CDG, provably safe on the same traffic.
  const topo::Grid grid = topo::make_mesh({2, 2});
  const routing::WestFirstAdaptiveMesh alg(grid);
  EXPECT_TRUE(cdg::ChannelDependencyGraph::build(alg).acyclic());
  const auto result = analysis::find_deadlock(
      alg, corner_traffic(grid, 2), analysis::AdversaryModel::kSynchronous,
      {});
  EXPECT_FALSE(result.deadlock_found);
  EXPECT_TRUE(result.exhausted);
}

TEST(Duato, DeadlockWitnessReplayReproducesWedge) {
  // Round trip for the adaptive search too: replay the single-lane
  // deadlock witness through a fresh simulator and re-observe the freeze.
  const topo::Grid grid = topo::make_mesh({2, 2});
  const routing::MinimalAdaptiveMesh alg(grid);
  const auto specs = corner_traffic(grid, 1);
  const auto found = analysis::find_deadlock(
      alg, specs, analysis::AdversaryModel::kSynchronous, {});
  ASSERT_TRUE(found.deadlock_found);

  sim::SimConfig config;
  config.check_invariants = true;
  sim::WormholeSimulator sim(alg, config);
  for (const auto& spec : specs) sim.add_message(spec);
  for (const auto& grants : found.witness_grants)
    sim.step_with_grants(grants);
  sim::WormholeSimulator probe(sim);
  EXPECT_FALSE(probe.step_with_grants({}));
  EXPECT_FALSE(probe.all_consumed());
}

}  // namespace
}  // namespace wormsim::core
