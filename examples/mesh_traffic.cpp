// mesh_traffic: a small command-line performance study.
//
//   mesh_traffic [radix] [pattern] [length]
//     radix    mesh side (default 8)
//     pattern  uniform | transpose | bitrev | hotspot (default uniform)
//     length   flits per message (default 8)
//
// Sweeps offered load and prints a latency/throughput table for XY routing
// versus the three deterministic turn-model algorithms — the contention
// behaviour the paper's introduction describes.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "obs/run_report.hpp"
#include "routing/dor.hpp"
#include "sim/simulator.hpp"
#include "sim/workloads.hpp"

using namespace wormsim;

namespace {

sim::TrafficPattern parse_pattern(const char* name) {
  if (std::strcmp(name, "transpose") == 0)
    return sim::TrafficPattern::kTranspose;
  if (std::strcmp(name, "bitrev") == 0)
    return sim::TrafficPattern::kBitReversal;
  if (std::strcmp(name, "hotspot") == 0)
    return sim::TrafficPattern::kHotspot;
  return sim::TrafficPattern::kUniformRandom;
}

struct Candidate {
  const char* name;
  const routing::RoutingAlgorithm* alg;
};

}  // namespace

int main(int argc, char** argv) {
  const int radix = argc > 1 ? std::atoi(argv[1]) : 8;
  const sim::TrafficPattern pattern =
      parse_pattern(argc > 2 ? argv[2] : "uniform");
  const auto length =
      static_cast<std::uint32_t>(argc > 3 ? std::atoi(argv[3]) : 8);

  const topo::Grid grid = topo::make_mesh({radix, radix});
  const routing::DimensionOrderMesh dor(grid);
  const routing::TurnModelMesh west(grid, routing::TurnModel2D::kWestFirst);
  const routing::TurnModelMesh north(grid, routing::TurnModel2D::kNorthLast);
  const routing::TurnModelMesh neg(grid,
                                   routing::TurnModel2D::kNegativeFirst);
  const Candidate candidates[] = {
      {"xy", &dor}, {"west-first", &west}, {"north-last", &north},
      {"negative-first", &neg}};

  std::printf("# %dx%d mesh, %u-flit messages\n", radix, radix, length);
  std::printf("%-15s %-10s %-10s %-12s %-10s %-22s\n", "algorithm", "rate",
              "mean-lat", "max-lat", "flits/cyc", "hottest-channel");

  for (const double rate : {0.001, 0.003, 0.006, 0.010, 0.015}) {
    sim::WorkloadConfig config;
    config.pattern = pattern;
    config.injection_rate = rate;
    config.message_length = length;
    config.horizon = 3'000;
    config.seed = 7;
    const auto specs = sim::generate_workload(grid, config);

    for (const Candidate& candidate : candidates) {
      sim::FifoArbitration policy;
      sim::SimConfig sim_config;
      sim_config.buffer_depth = 2;
      sim_config.max_cycles = 60'000;
      sim::WormholeSimulator simulator(*candidate.alg, sim_config, policy);
      for (const auto& spec : specs) simulator.add_message(spec);
      const auto result = simulator.run();
      const auto stats = sim::summarize_workload(simulator, result.cycles);
      std::printf("%-15s %-10.3f %-10.2f %-12.0f %-10.2f %s %.0f%%%s\n",
                  candidate.name, rate, stats.mean_latency,
                  stats.max_latency, stats.throughput_flits_per_cycle,
                  stats.hottest_channel.valid()
                      ? grid.net().channel(stats.hottest_channel).name.c_str()
                      : "-",
                  stats.max_channel_utilization * 100,
                  result.outcome == sim::RunOutcome::kAllConsumed
                      ? ""
                      : "  (!did not drain)");
    }
  }

  // One XY run at moderate load, exported as a machine-readable record
  // (BENCH_mesh_traffic.json; WORMSIM_BENCH_DIR redirects it).
  {
    sim::WorkloadConfig config;
    config.pattern = pattern;
    config.injection_rate = 0.006;
    config.message_length = length;
    config.horizon = 3'000;
    config.seed = 7;
    const auto specs = sim::generate_workload(grid, config);
    sim::FifoArbitration policy;
    sim::SimConfig sim_config;
    sim_config.buffer_depth = 2;
    sim_config.max_cycles = 60'000;
    sim::WormholeSimulator simulator(dor, sim_config, policy);
    for (const auto& spec : specs) simulator.add_message(spec);
    const auto result = simulator.run();
    const auto stats = sim::summarize_workload(simulator, result.cycles);

    obs::RunReport report;
    report.name = "mesh_traffic";
    report.kind = "simulation";
    report.labels["topology"] =
        std::to_string(radix) + "x" + std::to_string(radix) + "-mesh";
    report.labels["routing"] = "xy";
    report.labels["drained"] =
        result.outcome == sim::RunOutcome::kAllConsumed ? "yes" : "no";
    report.values["rate"] = 0.006;
    report.values["cycles"] = static_cast<double>(result.cycles);
    report.values["mean_latency"] = stats.mean_latency;
    report.values["max_latency"] = stats.max_latency;
    report.values["flits_per_cycle"] = stats.throughput_flits_per_cycle;
    if (obs::write_report_file(report))
      std::printf("# wrote BENCH_mesh_traffic.json\n");
  }
  return 0;
}
