// adaptive_demo: Duato's escape-channel idea, decided by search.
//
// Four corner-turning messages on a 2x2 mesh wedge single-lane fully
// adaptive routing (the adversary steers every header into the turn
// cycle); adding a dimension-order escape lane keeps the CDG cyclic but
// makes the same traffic provably deadlock-free — the adaptive counterpart
// of the paper's oblivious Figure-1 result.
#include <cstdio>

#include "analysis/deadlock_search.hpp"
#include "cdg/cdg.hpp"
#include "routing/adaptive.hpp"

using namespace wormsim;

namespace {

std::vector<sim::MessageSpec> corner_traffic(const topo::Grid& grid) {
  const auto at = [&grid](int x, int y) {
    const int c[2] = {x, y};
    return grid.node_at(c);
  };
  return {
      {at(0, 0), at(1, 1), 1, 0},
      {at(1, 0), at(0, 1), 1, 0},
      {at(1, 1), at(0, 0), 1, 0},
      {at(0, 1), at(1, 0), 1, 0},
  };
}

void analyze(const char* title, const routing::AdaptiveRouting& alg,
             const topo::Grid& grid) {
  const auto graph = cdg::ChannelDependencyGraph::build(alg);
  const auto result = analysis::find_deadlock(
      alg, corner_traffic(grid), analysis::AdversaryModel::kSynchronous, {});
  std::printf("%-28s CDG %s | search: %s (%llu states%s)\n", title,
              graph.acyclic() ? "acyclic" : "CYCLIC ",
              result.deadlock_found ? "DEADLOCK" : "deadlock-free",
              static_cast<unsigned long long>(result.states_explored),
              result.exhausted ? ", exhausted - proof" : "");
  if (result.deadlock_found) {
    std::printf("  witness:\n");
    for (const auto& line : result.witness)
      std::printf("    %s\n", line.c_str());
  }
}

}  // namespace

int main() {
  std::printf("Four messages, each to the opposite corner of a 2x2 mesh:\n\n");

  const topo::Grid single = topo::make_mesh({2, 2});
  const routing::MinimalAdaptiveMesh minimal(single);
  analyze("fully adaptive, 1 lane:", minimal, single);

  std::printf("\n");
  const topo::Grid dual = topo::make_mesh({2, 2}, 2);
  const routing::DuatoFullyAdaptiveMesh duato(dual);
  analyze("adaptive + escape lane:", duato, dual);

  std::printf("\n");
  const routing::WestFirstAdaptiveMesh west(single);
  analyze("west-first adaptive:", west, single);
  return 0;
}
