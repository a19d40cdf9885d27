// fig1_demo: a narrated tour of the paper's Section-4 example.
//
// Prints the Figure-1 network structure, replays the proof's key schedule
// (inject M2 before M1 — M2 still fails to block M1, by one cycle), shows
// that every injection order drains, and then demonstrates the Section-6
// twist: with a 2-cycle adversarial stall budget, the "unreachable" cycle
// becomes a real deadlock, printing the witness schedule and the final
// Definition-6 configuration.
#include <cstdio>
#include <fstream>
#include <string>

#include "analysis/deadlock_search.hpp"
#include "cdg/cdg.hpp"
#include "core/cyclic_family.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

using namespace wormsim;

int main() {
  const core::CyclicFamily family(core::fig1_spec());
  const auto& alg = family.algorithm();
  const auto& net = alg.net();

  std::printf("=== The Cyclic Dependency routing algorithm (Figure 1) ===\n");
  for (std::size_t i = 0; i < family.messages().size(); ++i) {
    const auto& info = family.messages()[i];
    std::printf("M%zu: %s -> %s, access %d channels, must hold %d ring "
                "channels (min length %d flits)\n",
                i + 1, net.node_name(info.source).c_str(),
                net.node_name(info.dest).c_str(), info.params.access,
                info.params.hold, info.params.hold);
  }

  const auto graph = cdg::ChannelDependencyGraph::build(alg);
  const auto cycles = graph.elementary_cycles();
  std::printf("\nCDG: %zu dependencies, %zu elementary cycle(s) of length "
              "%zu — cyclic, so Dally-Seitz does NOT apply.\n",
              graph.edge_count(), cycles.size(),
              cycles.empty() ? 0 : cycles.front().size());

  std::printf("\n=== Proof replay: inject M2, M4 first, then M1, M3 ===\n");
  {
    // Priorities: M2 (idx 1) first, M4 (idx 3) second, then M1, M3.
    sim::PriorityArbitration policy({2, 0, 3, 1});
    sim::WormholeSimulator simulator(alg, sim::SimConfig{}, policy);
    for (const auto& spec : family.message_specs())
      simulator.add_message(spec);
    obs::TraceBuffer trace;
    simulator.set_trace_sink(&trace);
    const auto result = simulator.run();
    for (const obs::TraceEvent& event : trace.events())
      if (const std::string text = obs::narrate(event, net); !text.empty())
        std::printf("  [%2llu] %s\n",
                    static_cast<unsigned long long>(event.cycle),
                    text.c_str());
    std::printf("outcome: %s after %llu cycles — the first message injected "
                "is never blocked (Theorem 1's case analysis).\n",
                result.outcome == sim::RunOutcome::kAllConsumed
                    ? "all consumed"
                    : "DEADLOCK",
                static_cast<unsigned long long>(result.cycles));

    // Export the typed event stream: load fig1_trace.json into
    // chrome://tracing (or https://ui.perfetto.dev) to see each message's
    // lifecycle instants and the channel-occupancy spans.
    if (std::ofstream chrome("fig1_trace.json"); chrome) {
      obs::write_chrome_trace(chrome, trace.events(), &net);
      std::printf("wrote fig1_trace.json (%zu events, chrome://tracing "
                  "format)\n", trace.size());
    }
    if (std::ofstream jsonl("fig1_trace.jsonl"); jsonl)
      obs::write_jsonl(jsonl, trace.events(), &net);
  }

  std::printf("\n=== Exhaustive verdict under the synchronous model ===\n");
  const auto safe = analysis::find_deadlock(
      alg, family.message_specs(), analysis::AdversaryModel::kSynchronous,
      {});
  std::printf("deadlock reachable: %s (explored %llu states, exhausted: "
              "%s)\n",
              safe.deadlock_found ? "YES" : "no",
              static_cast<unsigned long long>(safe.states_explored),
              safe.exhausted ? "yes — this is a proof" : "no");
  std::printf("search profile: memo hit rate %.1f%%, peak depth %llu, mean "
              "branching %.2f, %.0f states/sec\n",
              100.0 * safe.profile.memo_hit_rate(),
              static_cast<unsigned long long>(safe.profile.peak_depth),
              safe.profile.branch_factor.mean(),
              safe.profile.states_per_second);

  std::printf("\n=== Section 6: two cycles of adversarial stall suffice "
              "===\n");
  analysis::SearchLimits limits;
  limits.delay_budget = 2;
  const auto wedged = analysis::find_deadlock(
      alg, family.message_specs(), analysis::AdversaryModel::kBoundedDelay,
      limits);
  if (wedged.deadlock_found) {
    std::printf("deadlock found with total stall %u (max per message %u). "
                "Witness:\n",
                wedged.delay_used_total, wedged.delay_used_max);
    for (const auto& line : wedged.witness)
      std::printf("  %s\n", line.c_str());
    std::printf("final configuration:\n");
    for (const auto& p : wedged.deadlock_configuration.placements) {
      std::printf("  m%u holds", p.message.value());
      for (const ChannelId c : p.occupied)
        std::printf(" %s", net.channel(c).name.c_str());
      std::printf("\n");
    }
  } else {
    std::printf("unexpected: no deadlock within budget 2\n");
  }
  return 0;
}
