// cycle_lab — laboratory over the paper's networks.
//
// Builds each example network, prints its CDG cycle structure, runs the
// exhaustive reachability probe (base messages plus long-auxiliary variants)
// under the synchronous adversary, and prints the verdict. Also measures
// the minimum Section-6 delay budget at which the generalized family's
// cycle becomes a real deadlock. Pass "sweep" to instead sweep Theorem-5
// parameter space and print checker-vs-search agreement (used to calibrate
// the reconstruction of the scan-garbled condition 6).
#include <cstdio>
#include <cstring>

#include "analysis/deadlock_search.hpp"
#include "cdg/cdg.hpp"
#include "core/analyzer.hpp"
#include "core/cyclic_family.hpp"
#include "core/paper_networks.hpp"
#include "core/theorems.hpp"

using namespace wormsim;

namespace {

void analyze(const char* title, const core::CyclicFamily& family) {
  std::printf("=== %s ===\n", title);
  const auto& alg = family.algorithm();
  const auto graph = cdg::ChannelDependencyGraph::build(alg);
  std::printf("  channels=%zu cdg-edges=%zu cyclic-sccs=%zu cycles=%zu\n",
              alg.net().channel_count(), graph.edge_count(),
              graph.cyclic_sccs().size(), graph.elementary_cycles().size());

  const auto probe = core::probe_family_deadlock(family);
  std::printf("  probe: %s (states=%llu, exhausted=%s, aux=%zd)\n",
              probe.deadlock_found ? "DEADLOCK" : "no deadlock",
              static_cast<unsigned long long>(probe.total_states),
              probe.exhausted ? "yes" : "no",
              static_cast<std::ptrdiff_t>(probe.auxiliary_index));
  const auto t5 = core::evaluate_theorem5(family.spec());
  if (t5.applicable) std::printf("  theorem5: %s\n", t5.describe().c_str());
}

void sweep_theorem5() {
  // Ring order A, C, B with fixed access lengths 4 > 3 > 2; sweep the
  // segment lengths and compare the Theorem-5 checker with the search.
  std::printf("aA hA aB hB aC hC | conds                | checker  search\n");
  int disagreements = 0;
  for (int hA = 2; hA <= 6; ++hA) {
    for (int hB = 2; hB <= 6; ++hB) {
      for (int hC = 2; hC <= 6; ++hC) {
        core::CyclicFamilySpec spec;
        spec.name = "sweep";
        // Ring order: A(access 4), C(access 2), B(access 3).
        spec.messages = {{4, hA, true}, {2, hC, true}, {3, hB, true}};
        const core::CyclicFamily family(spec);
        const auto t5 = core::evaluate_theorem5(family.spec());
        analysis::SearchLimits limits;
        limits.max_states = 3'000'000;
        const auto probe = core::probe_family_deadlock(family, limits);
        const bool checker_unreachable = t5.all_hold();
        const bool search_unreachable =
            !probe.deadlock_found && probe.exhausted;
        const bool agree = checker_unreachable == search_unreachable;
        if (!agree) ++disagreements;
        std::printf("4 %d 3 %d 2 %d | %s | %s %s %s%s\n", hA, hB, hC,
                    t5.describe().c_str(),
                    checker_unreachable ? "unreach" : "dead",
                    probe.deadlock_found ? "DEADLOCK" : "no-deadlock",
                    probe.exhausted ? "" : "(bound hit)",
                    agree ? "" : "  <-- DISAGREE");
        std::fflush(stdout);
      }
    }
  }
  std::printf("disagreements: %d\n", disagreements);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "sweep") == 0) {
    sweep_theorem5();
    return 0;
  }

  analyze("Figure 1 (Cyclic Dependency algorithm)",
          core::CyclicFamily(core::fig1_spec()));
  analyze("Figure 2 (two messages share c_s)",
          core::CyclicFamily(core::fig2_spec()));
  for (const auto variant :
       {core::Fig3Variant::kA, core::Fig3Variant::kB, core::Fig3Variant::kC,
        core::Fig3Variant::kD, core::Fig3Variant::kE, core::Fig3Variant::kF}) {
    const auto spec = core::fig3_spec(variant);
    char title[64];
    std::snprintf(title, sizeof title, "Figure 3(%s) expect %s",
                  core::fig3_name(variant),
                  core::fig3_expected_unreachable(variant) ? "unreachable"
                                                           : "deadlock");
    analyze(title, core::CyclicFamily(spec));
  }

  std::printf("=== Section 6: minimal deadlock delay ===\n");
  for (int k = 1; k <= 4; ++k) {
    const core::CyclicFamily family(core::generalized_spec(k));
    analysis::SearchLimits limits;
    limits.max_states = 6'000'000;
    bool exhausted = false;
    const auto min_total = analysis::minimal_deadlock_delay(
        family.algorithm(), family.message_specs(),
        analysis::DelayMetric::kTotal, static_cast<std::uint32_t>(3 * k + 4),
        limits, &exhausted);
    bool exhausted_max = false;
    const auto min_max = analysis::minimal_deadlock_delay(
        family.algorithm(), family.message_specs(),
        analysis::DelayMetric::kMaxPerMessage,
        static_cast<std::uint32_t>(2 * k + 4), limits, &exhausted_max);
    std::printf(
        "  k=%d: min total delay = %s (definitive=%s), min per-message "
        "delay = %s (definitive=%s)\n",
        k, min_total ? std::to_string(*min_total).c_str() : "none",
        exhausted ? "yes" : "no",
        min_max ? std::to_string(*min_max).c_str() : "none",
        exhausted_max ? "yes" : "no");
  }
  return 0;
}
