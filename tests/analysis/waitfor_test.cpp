// Dally–Aoki packet wait-for-graph monitoring: an independent runtime
// deadlock detector cross-validated against the quiescence detector, and
// the dynamic explanation of Theorem 1 — the Cyclic Dependency algorithm's
// PWFG stays acyclic through every schedule even though its CDG does not.
#include "analysis/waitfor.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/deadlock_search.hpp"
#include "core/cyclic_family.hpp"
#include "routing/node_table.hpp"
#include "topo/builders.hpp"

namespace wormsim::analysis {
namespace {

class WaitForRing : public ::testing::Test {
 protected:
  WaitForRing() : net_(topo::make_unidirectional_ring(4)) {
    table_ = std::make_unique<routing::NodeTable>(net_);
    for (std::size_t s = 0; s < 4; ++s)
      for (std::size_t d = 0; d < 4; ++d)
        if (s != d)
          table_->set(NodeId{s}, NodeId{d},
                      *net_.find_channel(NodeId{s}, NodeId{(s + 1) % 4}));
  }
  topo::Network net_;
  std::unique_ptr<routing::NodeTable> table_;
  sim::FifoArbitration policy_;
};

TEST_F(WaitForRing, CycleAppearsExactlyAtTheWedge) {
  sim::WormholeSimulator sim(*table_, sim::SimConfig{}, policy_);
  for (std::size_t s = 0; s < 4; ++s)
    sim.add_message({NodeId{s}, NodeId{(s + 2) % 4}, 2, 0});
  const auto trace = run_with_waitfor_monitor(sim);
  EXPECT_EQ(trace.run.outcome, sim::RunOutcome::kDeadlock);
  ASSERT_TRUE(trace.ever_cyclic());
  // Once the PWFG cycle forms it never disappears (wormhole holds).
  for (std::size_t i = 1; i < trace.cycle_timestamps.size(); ++i)
    EXPECT_EQ(trace.cycle_timestamps[i], trace.cycle_timestamps[i - 1] + 1);
  EXPECT_EQ(trace.cycle_timestamps.back(), trace.run.cycles);
}

TEST_F(WaitForRing, NeighborTrafficNeverFormsWaitCycle) {
  sim::WormholeSimulator sim(*table_, sim::SimConfig{}, policy_);
  for (std::size_t s = 0; s < 4; ++s)
    sim.add_message({NodeId{s}, NodeId{(s + 1) % 4}, 3, 0});
  const auto trace = run_with_waitfor_monitor(sim);
  EXPECT_EQ(trace.run.outcome, sim::RunOutcome::kAllConsumed);
  EXPECT_FALSE(trace.ever_cyclic());
}

TEST(WaitForFig1, PwfgStaysAcyclicUnderEveryInjectionOrder) {
  // The dynamic counterpart of Theorem 1: the CDG cycle never materializes
  // as a packet wait-for cycle, under any of the 24 priority orders.
  const core::CyclicFamily family(core::fig1_spec());
  std::vector<std::uint32_t> order{0, 1, 2, 3};
  do {
    std::vector<std::uint32_t> ranking(4);
    for (std::uint32_t rank = 0; rank < 4; ++rank)
      ranking[order[rank]] = rank;
    sim::PriorityArbitration policy(ranking);
    sim::WormholeSimulator sim(family.algorithm(), sim::SimConfig{}, policy);
    for (const auto& spec : family.message_specs()) sim.add_message(spec);
    const auto trace = run_with_waitfor_monitor(sim);
    EXPECT_EQ(trace.run.outcome, sim::RunOutcome::kAllConsumed);
    EXPECT_FALSE(trace.ever_cyclic())
        << "PWFG cycle under order " << order[0] << order[1] << order[2]
        << order[3];
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(WaitForFig1, MonitorStopsWhereRunStops) {
  // The monitor honours SimConfig::max_cycles: cut at each horizon, its
  // RunResult is run()'s.
  const core::CyclicFamily family(core::fig1_spec());
  sim::FifoArbitration fifo;
  for (const sim::Cycle horizon : {1u, 3u, 7u, 12u}) {
    sim::SimConfig config;
    config.max_cycles = horizon;
    sim::WormholeSimulator monitored(family.algorithm(), config, fifo);
    sim::WormholeSimulator plain(family.algorithm(), config, fifo);
    for (const auto& spec : family.message_specs(4)) {
      monitored.add_message(spec);
      plain.add_message(spec);
    }
    const sim::RunResult expected = plain.run();
    const sim::RunResult got = run_with_waitfor_monitor(monitored).run;
    EXPECT_EQ(got.outcome, expected.outcome) << "horizon " << horizon;
    EXPECT_EQ(got.cycles, expected.cycles) << "horizon " << horizon;
    EXPECT_EQ(got.deadlock_cycle, expected.deadlock_cycle)
        << "horizon " << horizon;
  }
}

TEST(WaitForFig1, ReplayedStallWitnessCreatesPwfgCycle) {
  // The bounded-delay search at budget 2 produces a machine-replayable
  // witness; replaying it in a fresh simulator must reproduce a frozen
  // state whose packet wait-for graph is cyclic — the round trip between
  // the model checker and the plain simulator.
  const core::CyclicFamily family(core::fig1_spec());
  SearchLimits limits;
  limits.delay_budget = 2;
  const auto found = find_deadlock(family.algorithm(),
                                   family.message_specs(),
                                   AdversaryModel::kBoundedDelay, limits);
  ASSERT_TRUE(found.deadlock_found);
  ASSERT_FALSE(found.witness_grants.empty());

  sim::SimConfig config;
  config.check_invariants = true;
  sim::WormholeSimulator sim(family.algorithm(), config);
  for (const auto& spec : family.message_specs()) sim.add_message(spec);
  for (const auto& grants : found.witness_grants)
    sim.step_with_grants(grants);

  // The replayed state is frozen (no grants => no progress) and its PWFG
  // contains the four-message cycle.
  EXPECT_TRUE(waitfor_cycle_now(sim));
  sim::WormholeSimulator probe(sim);
  EXPECT_FALSE(probe.step_with_grants({}));
  EXPECT_FALSE(probe.all_consumed());
}

}  // namespace
}  // namespace wormsim::analysis
