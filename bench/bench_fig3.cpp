// Figure 3 / Theorem 5 harness: the six rings whose shared channel is used
// by exactly three messages. Counters per variant:
//   expected_unreachable  the paper's verdict for the subfigure
//   search_unreachable    the exhaustive probe's verdict (must match)
//   checker_unreachable   the Theorem-5 eight-condition evaluator's verdict
//   violated_condition    the single condition the variant violates (0=none)
//   states                states explored by the probe
#include <benchmark/benchmark.h>

#include "core/analyzer.hpp"
#include "core/paper_networks.hpp"
#include "core/theorems.hpp"

using namespace wormsim;

namespace {

void BM_Fig3_Variant(benchmark::State& state) {
  const auto variant = static_cast<core::Fig3Variant>(state.range(0));
  const core::CyclicFamily family(core::fig3_spec(variant));
  core::FamilyProbeResult probe;
  for (auto _ : state) {
    probe = core::probe_family_deadlock(family);
  }
  const auto report = core::evaluate_theorem5(family.spec());
  state.SetLabel(std::string("fig3(") + core::fig3_name(variant) + ")");
  state.counters["expected_unreachable"] =
      core::fig3_expected_unreachable(variant) ? 1.0 : 0.0;
  state.counters["search_unreachable"] =
      (!probe.deadlock_found && probe.exhausted) ? 1.0 : 0.0;
  state.counters["checker_unreachable"] = report.all_hold() ? 1.0 : 0.0;
  state.counters["violated_condition"] =
      static_cast<double>(core::fig3_violated_condition(variant));
  state.counters["states"] = static_cast<double>(probe.total_states);
}
BENCHMARK(BM_Fig3_Variant)
    ->DenseRange(0, 5, 1)
    ->Unit(benchmark::kMillisecond);

// The Theorem-5 sweep behind the calibration: for the aA=4 geometry, the
// checker is *sound* for unreachability — every all-conditions-hold point
// is search-verified unreachable. Counters report aggregate agreement.
void BM_Fig3_SoundnessSweep(benchmark::State& state) {
  std::size_t total = 0, unreachable_checker = 0, confirmed = 0;
  for (auto _ : state) {
    total = unreachable_checker = confirmed = 0;
    for (int hA = 3; hA <= 6; ++hA) {
      for (int hB = 2; hB <= 5; ++hB) {
        for (int hC = 2; hC <= 5; ++hC) {
          core::CyclicFamilySpec spec;
          spec.name = "sweep";
          spec.messages = {{4, hA, true}, {2, hC, true}, {3, hB, true}};
          const core::CyclicFamily family(spec);
          const auto report = core::evaluate_theorem5(family.spec());
          ++total;
          if (!report.all_hold()) continue;
          ++unreachable_checker;
          const auto probe = core::probe_family_deadlock(family);
          if (!probe.deadlock_found && probe.exhausted) ++confirmed;
        }
      }
    }
  }
  state.counters["instances"] = static_cast<double>(total);
  state.counters["checker_unreachable"] =
      static_cast<double>(unreachable_checker);
  state.counters["search_confirmed"] = static_cast<double>(confirmed);
}
BENCHMARK(BM_Fig3_SoundnessSweep)->Unit(benchmark::kSecond)
    ->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
