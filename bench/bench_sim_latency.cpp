// Wormhole performance context (paper Section 1): message latency is
// largely insensitive to distance at low load, and contention cascades
// raise latency as offered load grows. Regenerated on an 8x8 mesh with
// dimension-order and turn-model routing, and on an 8x8 torus with the
// Dally–Seitz two-virtual-channel scheme. Counters:
//   mean_latency   inject -> header-delivery, cycles (delivered messages)
//   max_latency    worst observed
//   delivered      fraction of offered messages delivered in the horizon
//   flits_per_cyc  accepted throughput: consumed flits per cycle
//   ns_per_active_channel_cycle
//                  wall time / run cycles / mean busy channels — per-cycle
//                  cost normalized by how much of the network was actually
//                  working (run() pays only for scheduled work).
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>

#include "routing/dor.hpp"
#include "sim/simulator.hpp"
#include "sim/workloads.hpp"

using namespace wormsim;

namespace {

constexpr sim::Cycle kHorizon = 4'000;
constexpr sim::Cycle kDrain = 30'000;

void run_workload(benchmark::State& state,
                  const routing::RoutingAlgorithm& alg,
                  const topo::Grid& grid, sim::TrafficPattern pattern,
                  double rate) {
  sim::WorkloadConfig config;
  config.pattern = pattern;
  config.injection_rate = rate;
  config.message_length = 8;
  config.horizon = kHorizon;
  config.seed = 12345;
  const auto specs = sim::generate_workload(grid, config);

  sim::FifoArbitration policy;
  sim::SimConfig sim_config;
  sim_config.buffer_depth = 2;
  sim_config.max_cycles = kDrain;

  sim::WorkloadStats stats;
  sim::Cycle cycles = 0;
  double run_seconds = 0;
  double active_channels = 0;
  for (auto _ : state) {
    sim::WormholeSimulator simulator(alg, sim_config, policy);
    for (const auto& spec : specs) simulator.add_message(spec);
    const auto start = std::chrono::steady_clock::now();
    const auto result = simulator.run();
    run_seconds += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    cycles = result.cycles;
    stats = sim::summarize_workload(simulator, result.cycles);
    active_channels = stats.mean_channel_utilization *
                      static_cast<double>(grid.net().channel_count());
    // Copy before DoNotOptimize: the "+r" asm constraint of older
    // google-benchmark versions clobbers double lvalues.
    double sink = stats.mean_latency;
    benchmark::DoNotOptimize(sink);
  }
  state.counters["offered"] = static_cast<double>(stats.offered);
  state.counters["mean_latency"] = stats.mean_latency;
  state.counters["max_latency"] = stats.max_latency;
  state.counters["delivered_frac"] =
      stats.offered == 0 ? 1.0
                         : static_cast<double>(stats.delivered) /
                               static_cast<double>(stats.offered);
  state.counters["flits_per_cyc"] = stats.throughput_flits_per_cycle;
  state.counters["cycles"] = static_cast<double>(cycles);
  const double iterations = static_cast<double>(state.iterations());
  const double ns_per_cycle =
      cycles == 0 ? 0
                  : run_seconds * 1e9 / iterations /
                        static_cast<double>(cycles);
  state.counters["ns_per_cycle"] = ns_per_cycle;
  state.counters["active_channels"] = active_channels;
  state.counters["ns_per_active_channel_cycle"] =
      active_channels > 0 ? ns_per_cycle / active_channels : 0;
}

// Offered-load sweep: rate in millionths per node per cycle.
void BM_Mesh_DorUniform(benchmark::State& state) {
  const topo::Grid grid = topo::make_mesh({8, 8});
  const routing::DimensionOrderMesh dor(grid);
  run_workload(state, dor, grid, sim::TrafficPattern::kUniformRandom,
               static_cast<double>(state.range(0)) * 1e-6);
}
BENCHMARK(BM_Mesh_DorUniform)
    ->Arg(1000)->Arg(3000)->Arg(6000)->Arg(10000)->Arg(15000)
    ->Unit(benchmark::kMillisecond);

void BM_Mesh_WestFirstUniform(benchmark::State& state) {
  const topo::Grid grid = topo::make_mesh({8, 8});
  const routing::TurnModelMesh alg(grid, routing::TurnModel2D::kWestFirst);
  run_workload(state, alg, grid, sim::TrafficPattern::kUniformRandom,
               static_cast<double>(state.range(0)) * 1e-6);
}
BENCHMARK(BM_Mesh_WestFirstUniform)
    ->Arg(3000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_Mesh_DorTranspose(benchmark::State& state) {
  const topo::Grid grid = topo::make_mesh({8, 8});
  const routing::DimensionOrderMesh dor(grid);
  run_workload(state, dor, grid, sim::TrafficPattern::kTranspose,
               static_cast<double>(state.range(0)) * 1e-6);
}
BENCHMARK(BM_Mesh_DorTranspose)
    ->Arg(3000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_Mesh_DorHotspot(benchmark::State& state) {
  const topo::Grid grid = topo::make_mesh({8, 8});
  const routing::DimensionOrderMesh dor(grid);
  run_workload(state, dor, grid, sim::TrafficPattern::kHotspot,
               static_cast<double>(state.range(0)) * 1e-6);
}
BENCHMARK(BM_Mesh_DorHotspot)
    ->Arg(3000)->Arg(6000)
    ->Unit(benchmark::kMillisecond);

void BM_Torus_DatelineUniform(benchmark::State& state) {
  const topo::Grid grid = topo::make_torus({8, 8}, 2);
  const routing::TorusDateline dor(grid);
  run_workload(state, dor, grid, sim::TrafficPattern::kUniformRandom,
               static_cast<double>(state.range(0)) * 1e-6);
}
BENCHMARK(BM_Torus_DatelineUniform)
    ->Arg(3000)->Arg(10000)->Arg(15000)
    ->Unit(benchmark::kMillisecond);

// Distance-insensitivity at low load (the wormhole motivation): latency of
// a lone message vs distance — should grow by ~1 cycle per hop (pipeline
// fill), not by a store-and-forward multiple of the message length.
void BM_Mesh_LatencyVsDistance(benchmark::State& state) {
  const topo::Grid grid = topo::make_mesh({8, 8});
  const routing::DimensionOrderMesh dor(grid);
  const int dist = static_cast<int>(state.range(0));
  const int from_c[2] = {0, 0};
  const int to_c[2] = {dist > 7 ? 7 : dist, dist > 7 ? dist - 7 : 0};

  sim::FifoArbitration policy;
  double latency = 0;
  for (auto _ : state) {
    sim::WormholeSimulator simulator(dor, sim::SimConfig{}, policy);
    const auto m = simulator.add_message(
        {grid.node_at(from_c), grid.node_at(to_c), 16, 0});
    simulator.run();
    latency = static_cast<double>(simulator.stats(m).deliver_cycle -
                                  simulator.stats(m).inject_cycle);
  }
  state.counters["distance"] = dist;
  state.counters["latency"] = latency;
  state.counters["latency_per_hop"] = latency / dist;
}
BENCHMARK(BM_Mesh_LatencyVsDistance)->Arg(1)->Arg(4)->Arg(7)->Arg(14)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
