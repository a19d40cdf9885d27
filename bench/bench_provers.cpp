// Prover comparison (the paper's Section-2 landscape as a table): for each
// algorithm, whether each deadlock-freedom technique can certify it.
//   ds_acyclic       1 = Dally–Seitz applies (CDG acyclic)
//   msgflow_proves   1 = Lin–McKinley–Ni message-flow model proves freedom
//   search_free      1 = exhaustive reachability search proves freedom
//                    0 = search finds a deadlock
// The interesting rows are the paper's networks: cyclic CDG (ds=0),
// message-flow inconclusive (msgflow=0), yet the search separates the
// deadlock-free Figure 1 (search_free=1) from the genuinely deadlocking
// Figure 2 (search_free=0) — the capability gap the paper identifies.
#include <benchmark/benchmark.h>

#include "analysis/deadlock_search.hpp"
#include "analysis/message_flow.hpp"
#include "cdg/cdg.hpp"
#include "core/analyzer.hpp"
#include "core/cyclic_family.hpp"
#include "core/paper_networks.hpp"
#include "routing/dor.hpp"
#include "routing/node_table.hpp"
#include "topo/builders.hpp"

using namespace wormsim;

namespace {

void report(benchmark::State& state, const routing::RoutingAlgorithm& alg,
            double search_free) {
  const auto graph = cdg::ChannelDependencyGraph::build(alg);
  const auto flow = analysis::message_flow_analysis(alg);
  state.counters["ds_acyclic"] = graph.acyclic() ? 1.0 : 0.0;
  state.counters["msgflow_proves"] = flow.proves_deadlock_free ? 1.0 : 0.0;
  state.counters["search_free"] = search_free;
}

void BM_Provers_DorMesh(benchmark::State& state) {
  const topo::Grid grid = topo::make_mesh({4, 4});
  const routing::DimensionOrderMesh dor(grid);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::message_flow_analysis(dor).proves_deadlock_free);
  }
  report(state, dor, 1.0);  // acyclic CDG => deadlock-free a fortiori
}
BENCHMARK(BM_Provers_DorMesh)->Unit(benchmark::kMillisecond);

void BM_Provers_TorusDateline(benchmark::State& state) {
  const topo::Grid grid = topo::make_torus({4, 4}, 2);
  const routing::TorusDateline dor(grid);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::message_flow_analysis(dor).proves_deadlock_free);
  }
  report(state, dor, 1.0);
}
BENCHMARK(BM_Provers_TorusDateline)->Unit(benchmark::kMillisecond);

void BM_Provers_UnidirectionalRing(benchmark::State& state) {
  const topo::Network net = topo::make_unidirectional_ring(4);
  routing::NodeTable table(net);
  for (std::size_t s = 0; s < 4; ++s)
    for (std::size_t d = 0; d < 4; ++d)
      if (s != d)
        table.set(NodeId{s}, NodeId{d},
                  *net.find_channel(NodeId{s}, NodeId{(s + 1) % 4}));
  double search_free = 0.0;
  for (auto _ : state) {
    const auto analysis = core::analyze_algorithm(table);
    search_free =
        analysis.verdict == core::CycleVerdict::kDeadlockReachable ? 0.0
                                                                   : 1.0;
  }
  report(state, table, search_free);
}
BENCHMARK(BM_Provers_UnidirectionalRing)->Unit(benchmark::kMillisecond);

void BM_Provers_Fig1(benchmark::State& state) {
  const core::CyclicFamily family(core::fig1_spec());
  double search_free = 0.0;
  for (auto _ : state) {
    const auto analysis = core::analyze_algorithm(family.algorithm());
    search_free =
        analysis.verdict == core::CycleVerdict::kFalseResourceCycle ? 1.0
                                                                    : 0.0;
  }
  report(state, family.algorithm(), search_free);
}
BENCHMARK(BM_Provers_Fig1)->Unit(benchmark::kMillisecond);

void BM_Provers_Fig2(benchmark::State& state) {
  const core::CyclicFamily family(core::fig2_spec());
  double search_free = 1.0;
  for (auto _ : state) {
    const auto analysis = core::analyze_algorithm(family.algorithm());
    search_free =
        analysis.verdict == core::CycleVerdict::kDeadlockReachable ? 0.0
                                                                   : 1.0;
  }
  report(state, family.algorithm(), search_free);
}
BENCHMARK(BM_Provers_Fig2)->Unit(benchmark::kMillisecond);

void BM_Provers_DuatoAdaptive(benchmark::State& state) {
  // Adaptive counterpart of Figure 1: cyclic CDG (the adaptive lane) yet
  // provably deadlock-free thanks to the escape subnetwork — Duato's
  // theorem decided by search on the 2x2 corner-turning traffic.
  const topo::Grid grid = topo::make_mesh({2, 2}, 2);
  const routing::DuatoFullyAdaptiveMesh alg(grid);
  const auto at = [&grid](int x, int y) {
    const int c[2] = {x, y};
    return grid.node_at(c);
  };
  const std::vector<sim::MessageSpec> specs = {
      {at(0, 0), at(1, 1), 1, 0},
      {at(1, 0), at(0, 1), 1, 0},
      {at(1, 1), at(0, 0), 1, 0},
      {at(0, 1), at(1, 0), 1, 0},
  };
  double search_free = 0.0;
  for (auto _ : state) {
    const auto result = analysis::find_deadlock(
        alg, specs, analysis::AdversaryModel::kSynchronous, {});
    search_free = (!result.deadlock_found && result.exhausted) ? 1.0 : 0.0;
  }
  const auto graph = cdg::ChannelDependencyGraph::build(alg);
  state.counters["ds_acyclic"] = graph.acyclic() ? 1.0 : 0.0;
  // The message-flow model is formulated for oblivious routing functions;
  // not applicable to adaptive rows.
  state.counters["msgflow_proves"] = 0.0;
  state.counters["search_free"] = search_free;
}
BENCHMARK(BM_Provers_DuatoAdaptive)->Unit(benchmark::kMillisecond);

void BM_Provers_MinimalAdaptive(benchmark::State& state) {
  // Negative control: the same traffic wedges single-lane fully adaptive
  // routing.
  const topo::Grid grid = topo::make_mesh({2, 2});
  const routing::MinimalAdaptiveMesh alg(grid);
  const auto at = [&grid](int x, int y) {
    const int c[2] = {x, y};
    return grid.node_at(c);
  };
  const std::vector<sim::MessageSpec> specs = {
      {at(0, 0), at(1, 1), 1, 0},
      {at(1, 0), at(0, 1), 1, 0},
      {at(1, 1), at(0, 0), 1, 0},
      {at(0, 1), at(1, 0), 1, 0},
  };
  double search_free = 1.0;
  for (auto _ : state) {
    const auto result = analysis::find_deadlock(
        alg, specs, analysis::AdversaryModel::kSynchronous, {});
    search_free = result.deadlock_found ? 0.0 : 1.0;
  }
  const auto graph = cdg::ChannelDependencyGraph::build(alg);
  state.counters["ds_acyclic"] = graph.acyclic() ? 1.0 : 0.0;
  state.counters["msgflow_proves"] = 0.0;  // not applicable (adaptive)
  state.counters["search_free"] = search_free;
}
BENCHMARK(BM_Provers_MinimalAdaptive)->Unit(benchmark::kMillisecond);

void BM_Provers_Fig3a(benchmark::State& state) {
  const core::CyclicFamily family(core::fig3_spec(core::Fig3Variant::kA));
  double search_free = 0.0;
  for (auto _ : state) {
    const auto probe = core::probe_family_deadlock(family);
    search_free = (!probe.deadlock_found && probe.exhausted) ? 1.0 : 0.0;
  }
  report(state, family.algorithm(), search_free);
}
BENCHMARK(BM_Provers_Fig3a)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
