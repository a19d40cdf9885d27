// Packet wait-for-graph analysis (Dally & Aoki, Section 2 of the paper).
//
// The packet wait-for graph (PWFG) is defined dynamically by the packets in
// the network: an edge p -> q exists when p waits for a channel held by q.
// Dally & Aoki prove deadlock freedom for algorithms that guarantee an
// acyclic PWFG at all times. This module provides an online monitor that
// samples the PWFG every cycle of a simulation run and records whether a
// cycle ever formed — used both as a second, independent deadlock detector
// (cross-validated against quiescence detection) and to confirm that the
// Cyclic Dependency algorithm keeps its PWFG acyclic throughout every
// schedule, which is *why* its CDG cycle is harmless.
#pragma once

#include <vector>

#include "sim/simulator.hpp"

namespace wormsim::analysis {

/// True iff the current PWFG of `sim` contains a cycle (a set of in-flight
/// messages each blocked on a channel held by the next).
bool waitfor_cycle_now(const sim::WormholeSimulator& sim);

struct WaitForTrace {
  /// Cycles (timestamps) at which the PWFG contained a cycle.
  std::vector<sim::Cycle> cycle_timestamps;
  sim::RunResult run;
  [[nodiscard]] bool ever_cyclic() const { return !cycle_timestamps.empty(); }
};

/// Runs `sim` like sim.run(), stopping where it stops (every message
/// consumed, a cycle with no progress, or max_cycles), while sampling the
/// PWFG every cycle.
WaitForTrace run_with_waitfor_monitor(sim::WormholeSimulator& sim);

}  // namespace wormsim::analysis
