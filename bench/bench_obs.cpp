// Observability overhead: the same 8x8-mesh workload with tracing off and
// with the typed trace sink attached. The disabled configuration is the
// acceptance gate — it must track bench_sim_latency's baseline, since every
// event site costs exactly one branch when nothing is listening.
//
// The binary also demonstrates the machine-readable pipeline: after the
// benchmark run it writes BENCH_obs_overhead.json (a RunReport) next to
// google-benchmark's own --benchmark_out file. See the `bench_json` target.
#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <optional>

#include "analysis/deadlock_search.hpp"
#include "analysis/search_status.hpp"
#include "core/cyclic_family.hpp"
#include "core/paper_networks.hpp"
#include "obs/run_report.hpp"
#include "obs/status.hpp"
#include "obs/trace.hpp"
#include "routing/dor.hpp"
#include "sim/simulator.hpp"
#include "sim/workloads.hpp"

using namespace wormsim;

namespace {

enum class Mode { kDisabled, kTraceBuffer };

constexpr sim::Cycle kHorizon = 4'000;
constexpr sim::Cycle kDrain = 30'000;
constexpr double kRate = 3000e-6;

std::vector<sim::MessageSpec> mesh_specs(const topo::Grid& grid) {
  sim::WorkloadConfig config;
  config.pattern = sim::TrafficPattern::kUniformRandom;
  config.injection_rate = kRate;
  config.message_length = 8;
  config.horizon = kHorizon;
  config.seed = 12345;
  return sim::generate_workload(grid, config);
}

void run_mode(benchmark::State& state, Mode mode) {
  const topo::Grid grid = topo::make_mesh({8, 8});
  const routing::DimensionOrderMesh dor(grid);
  const auto specs = mesh_specs(grid);

  sim::FifoArbitration policy;
  sim::SimConfig sim_config;
  sim_config.buffer_depth = 2;
  sim_config.max_cycles = kDrain;

  std::size_t events = 0;
  for (auto _ : state) {
    sim::WormholeSimulator simulator(dor, sim_config, policy);
    for (const auto& spec : specs) simulator.add_message(spec);
    obs::TraceBuffer buffer;
    if (mode == Mode::kTraceBuffer) simulator.set_trace_sink(&buffer);
    const auto result = simulator.run();
    events = buffer.size();
    double sink = static_cast<double>(result.cycles);
    benchmark::DoNotOptimize(sink);
  }
  state.counters["offered"] = static_cast<double>(specs.size());
  if (mode == Mode::kTraceBuffer)
    state.counters["events"] = static_cast<double>(events);
}

void BM_Obs_Disabled(benchmark::State& state) {
  run_mode(state, Mode::kDisabled);
}
BENCHMARK(BM_Obs_Disabled)->Unit(benchmark::kMillisecond);

void BM_Obs_TraceBuffer(benchmark::State& state) {
  run_mode(state, Mode::kTraceBuffer);
}
BENCHMARK(BM_Obs_TraceBuffer)->Unit(benchmark::kMillisecond);

// --- Status-sampler overhead on the search engine --------------------------
//
// The same Fig. 1 x2 exhaustive search (the bench_search workhorse) with the
// live-telemetry board detached (SearchLimits::status == nullptr, one branch
// per fresh state) versus attached with a StatusSampler heartbeating a file
// at the production default of 1 s. The off configuration is the acceptance
// gate — it must track the uninstrumented search; the on configuration is
// bounded at ~1% (docs/observability.md, EXPERIMENTS.md).

enum class StatusMode { kOff, kOn };

void run_search_status(benchmark::State& state, StatusMode mode) {
  const core::CyclicFamily family(core::fig1_spec());
  const auto base = family.message_specs();
  std::vector<sim::MessageSpec> specs;
  for (int copy = 0; copy < 2; ++copy)
    specs.insert(specs.end(), base.begin(), base.end());

  const std::string status_path =
      (std::filesystem::temp_directory_path() / "bench_obs_status.json")
          .string();
  analysis::SearchStatusBoard board;
  std::optional<obs::StatusSampler> sampler;
  analysis::SearchLimits limits;
  if (mode == StatusMode::kOn) {
    limits.status = &board;
    sampler.emplace(status_path, 1.0,
                    [&board] { return analysis::search_status_snapshot(board); });
  }

  analysis::DeadlockSearchResult result;
  for (auto _ : state) {
    result = analysis::find_deadlock(
        family.algorithm(), specs, analysis::AdversaryModel::kSynchronous,
        limits);
    benchmark::DoNotOptimize(result.states_explored);
  }
  if (sampler) {
    sampler->stop();
    std::filesystem::remove(status_path);
  }
  state.counters["states"] = static_cast<double>(result.states_explored);
  state.counters["exhausted"] = result.exhausted ? 1 : 0;
}

void BM_Obs_SearchStatusOff(benchmark::State& state) {
  run_search_status(state, StatusMode::kOff);
}
BENCHMARK(BM_Obs_SearchStatusOff)->Unit(benchmark::kMillisecond);

void BM_Obs_SearchStatusOn(benchmark::State& state) {
  run_search_status(state, StatusMode::kOn);
}
BENCHMARK(BM_Obs_SearchStatusOn)->Unit(benchmark::kMillisecond);

/// One run, timed directly, summarized as a RunReport.
void write_overhead_report() {
  const topo::Grid grid = topo::make_mesh({8, 8});
  const routing::DimensionOrderMesh dor(grid);
  const auto specs = mesh_specs(grid);

  sim::FifoArbitration policy;
  sim::SimConfig sim_config;
  sim_config.buffer_depth = 2;
  sim_config.max_cycles = kDrain;

  sim::WormholeSimulator simulator(dor, sim_config, policy);
  for (const auto& spec : specs) simulator.add_message(spec);
  const auto start = std::chrono::steady_clock::now();
  const auto result = simulator.run();
  const auto stop = std::chrono::steady_clock::now();

  obs::RunReport report;
  report.name = "obs_overhead";
  report.kind = "bench";
  report.labels["topology"] = "mesh-8x8";
  report.labels["routing"] = "dor";
  report.labels["pattern"] = "uniform";
  report.values["cycles"] = static_cast<double>(result.cycles);
  report.values["seconds"] =
      std::chrono::duration<double>(stop - start).count();
  report.values["offered"] = static_cast<double>(specs.size());
  obs::write_report_file(report);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_overhead_report();
  return 0;
}
