#include "analysis/waitfor.hpp"

#include <algorithm>

namespace wormsim::analysis {

bool waitfor_cycle_now(const sim::WormholeSimulator& sim) {
  const auto occ = sim.occupancy();
  const auto cycle = sim::find_wait_cycle(
      occ, [&sim](ChannelId c) { return sim.channel_owner(c); });
  return !cycle.empty();
}

WaitForTrace run_with_waitfor_monitor(sim::WormholeSimulator& sim) {
  WaitForTrace trace;
  while (sim.now() < sim.max_cycles()) {
    const bool progress = sim.step();
    if (waitfor_cycle_now(sim)) trace.cycle_timestamps.push_back(sim.now());
    if (sim.all_consumed()) {
      trace.run.outcome = sim::RunOutcome::kAllConsumed;
      trace.run.cycles = sim.now();
      return trace;
    }
    if (!progress) {
      trace.run.outcome = sim::RunOutcome::kDeadlock;
      trace.run.cycles = sim.now();
      const auto occ = sim.occupancy();
      trace.run.deadlock_cycle = sim::find_wait_cycle(
          occ, [&sim](ChannelId c) { return sim.channel_owner(c); });
      return trace;
    }
  }
  trace.run.outcome = sim::RunOutcome::kHorizon;
  trace.run.cycles = sim.now();
  return trace;
}

}  // namespace wormsim::analysis
