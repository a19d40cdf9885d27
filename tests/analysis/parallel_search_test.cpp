// Parallel-vs-serial equivalence of the reachability search.
//
// SearchLimits::threads > 1 must never change the *verdict*: the parallel
// engine's workers share one exact visited table, so "every worker
// exhausted" is the same proof the serial DFS produces, and any reachable
// deadlock is found by some worker. These tests pin that contract on the
// paper's instances (ring, Figures 1–3) in both adversary models, check
// that a parallel deadlock's grant witness replays on a fresh serial
// simulator to the identical configuration, and check that a search
// stopped early by max_states returns exactly the threads=1 result.
#include <gtest/gtest.h>

#include "analysis/deadlock_search.hpp"
#include "core/cyclic_family.hpp"
#include "core/paper_networks.hpp"
#include "routing/node_table.hpp"
#include "topo/builders.hpp"

namespace wormsim::analysis {
namespace {

SearchLimits with_threads(unsigned threads, SearchLimits limits = {}) {
  limits.threads = threads;
  return limits;
}

class ParallelRingTest : public ::testing::Test {
 protected:
  ParallelRingTest() : net_(topo::make_unidirectional_ring(4)) {
    table_ = std::make_unique<routing::NodeTable>(net_);
    for (std::size_t s = 0; s < 4; ++s)
      for (std::size_t d = 0; d < 4; ++d)
        if (s != d)
          table_->set(NodeId{s}, NodeId{d},
                      *net_.find_channel(NodeId{s}, NodeId{(s + 1) % 4}));
  }
  std::vector<sim::MessageSpec> ring_messages(std::uint32_t length) const {
    std::vector<sim::MessageSpec> specs;
    for (std::size_t s = 0; s < 4; ++s)
      specs.push_back({NodeId{s}, NodeId{(s + 2) % 4}, length, 0});
    return specs;
  }
  std::vector<sim::MessageSpec> neighbor_messages() const {
    std::vector<sim::MessageSpec> specs;
    for (std::size_t s = 0; s < 4; ++s)
      specs.push_back({NodeId{s}, NodeId{(s + 1) % 4}, 3, 0});
    return specs;
  }
  topo::Network net_;
  std::unique_ptr<routing::NodeTable> table_;
};

TEST_F(ParallelRingTest, DeadlockVerdictMatchesSerial) {
  const auto specs = ring_messages(2);
  const auto serial = find_deadlock(*table_, specs,
                                    AdversaryModel::kSynchronous,
                                    with_threads(1));
  const auto parallel = find_deadlock(*table_, specs,
                                      AdversaryModel::kSynchronous,
                                      with_threads(4));
  ASSERT_TRUE(serial.deadlock_found);
  EXPECT_TRUE(parallel.deadlock_found);
  EXPECT_EQ(parallel.deadlock_cycle.size(), serial.deadlock_cycle.size());
  // Both witnesses are legal Definition-6 configurations.
  EXPECT_TRUE(is_deadlock_shaped(parallel.deadlock_configuration, *table_));
  EXPECT_TRUE(check_legal(parallel.deadlock_configuration, *table_, 1).legal);
}

TEST_F(ParallelRingTest, SafetyProofMatchesSerial) {
  const auto specs = neighbor_messages();
  const auto serial = find_deadlock(*table_, specs,
                                    AdversaryModel::kSynchronous,
                                    with_threads(1));
  const auto parallel = find_deadlock(*table_, specs,
                                      AdversaryModel::kSynchronous,
                                      with_threads(4));
  EXPECT_FALSE(serial.deadlock_found);
  EXPECT_FALSE(parallel.deadlock_found);
  // Exhaustion — the proof — must survive parallelization.
  EXPECT_TRUE(serial.exhausted);
  EXPECT_TRUE(parallel.exhausted);
}

TEST_F(ParallelRingTest, ParallelWitnessReplaysToSameConfiguration) {
  const auto specs = ring_messages(2);
  const auto result = find_deadlock(*table_, specs,
                                    AdversaryModel::kSynchronous,
                                    with_threads(4));
  ASSERT_TRUE(result.deadlock_found);
  ASSERT_FALSE(result.witness_grants.empty());

  sim::SimConfig config;
  config.buffer_depth = 1;
  sim::WormholeSimulator replay(*table_, config);
  for (const auto& spec : specs) replay.add_message(spec);
  for (const auto& grants : result.witness_grants)
    replay.step_with_grants(grants);
  const auto final_config = snapshot(replay);
  ASSERT_EQ(final_config.placements.size(),
            result.deadlock_configuration.placements.size());
  for (std::size_t i = 0; i < final_config.placements.size(); ++i) {
    EXPECT_EQ(final_config.placements[i].occupied,
              result.deadlock_configuration.placements[i].occupied);
  }
}

TEST_F(ParallelRingTest, ThreadsZeroMeansHardwareConcurrency) {
  const auto result = find_deadlock(*table_, ring_messages(2),
                                    AdversaryModel::kSynchronous,
                                    with_threads(0));
  EXPECT_TRUE(result.deadlock_found);
}

TEST_F(ParallelRingTest, StateBoundStillReportsNonExhaustive) {
  SearchLimits limits = with_threads(4);
  limits.max_states = 3;
  const auto result = find_deadlock(*table_, neighbor_messages(),
                                    AdversaryModel::kSynchronous, limits);
  EXPECT_FALSE(result.deadlock_found);
  EXPECT_FALSE(result.exhausted);
}

TEST_F(ParallelRingTest, BoundedDelayVerdictMatchesSerial) {
  SearchLimits limits;
  limits.delay_budget = 2;
  const auto serial = find_deadlock(*table_, neighbor_messages(),
                                    AdversaryModel::kBoundedDelay,
                                    with_threads(1, limits));
  const auto parallel = find_deadlock(*table_, neighbor_messages(),
                                      AdversaryModel::kBoundedDelay,
                                      with_threads(4, limits));
  EXPECT_EQ(parallel.deadlock_found, serial.deadlock_found);
  EXPECT_EQ(parallel.exhausted, serial.exhausted);
}

TEST_F(ParallelRingTest, ParallelMinimalDelayMatchesSerial) {
  bool serial_exhausted = false;
  const auto serial = minimal_deadlock_delay(
      *table_, neighbor_messages(), DelayMetric::kTotal, 3, with_threads(1),
      &serial_exhausted);
  bool parallel_exhausted = false;
  const auto parallel = minimal_deadlock_delay(
      *table_, neighbor_messages(), DelayMetric::kTotal, 3, with_threads(4),
      &parallel_exhausted);
  EXPECT_EQ(parallel, serial);
  EXPECT_EQ(parallel_exhausted, serial_exhausted);

  const auto serial_hit = minimal_deadlock_delay(
      *table_, ring_messages(2), DelayMetric::kTotal, 2, with_threads(1));
  const auto parallel_hit = minimal_deadlock_delay(
      *table_, ring_messages(2), DelayMetric::kTotal, 2, with_threads(4));
  ASSERT_TRUE(serial_hit.has_value());
  EXPECT_EQ(parallel_hit, serial_hit);
}

// --- Paper instances -------------------------------------------------------

TEST(ParallelPaperTest, Fig1SynchronousSafetyMatchesSerial) {
  const core::CyclicFamily family(core::fig1_spec());
  const auto specs = family.message_specs();
  const auto serial = find_deadlock(family.algorithm(), specs,
                                    AdversaryModel::kSynchronous,
                                    with_threads(1));
  const auto parallel = find_deadlock(family.algorithm(), specs,
                                      AdversaryModel::kSynchronous,
                                      with_threads(4));
  // Theorem 1: the Figure-1 cycle is unreachable under the synchronous
  // adversary — both engines must prove it.
  EXPECT_FALSE(serial.deadlock_found);
  EXPECT_TRUE(serial.exhausted);
  EXPECT_FALSE(parallel.deadlock_found);
  EXPECT_TRUE(parallel.exhausted);
}

TEST(ParallelPaperTest, Fig2DeadlockMatchesSerialBothModels) {
  const core::CyclicFamily family(core::fig2_spec());
  const auto specs = family.message_specs();
  for (const auto model :
       {AdversaryModel::kSynchronous, AdversaryModel::kBoundedDelay}) {
    const auto serial =
        find_deadlock(family.algorithm(), specs, model, with_threads(1));
    const auto parallel =
        find_deadlock(family.algorithm(), specs, model, with_threads(4));
    EXPECT_EQ(parallel.deadlock_found, serial.deadlock_found);
    EXPECT_EQ(parallel.exhausted, serial.exhausted);
    if (parallel.deadlock_found) {
      // Replay the parallel witness serially to the claimed configuration.
      sim::SimConfig config;
      config.buffer_depth = 1;
      sim::WormholeSimulator replay(family.algorithm(), config);
      for (const auto& spec : specs) replay.add_message(spec);
      for (const auto& grants : parallel.witness_grants)
        replay.step_with_grants(grants);
      const auto final_config = snapshot(replay);
      ASSERT_EQ(final_config.placements.size(),
                parallel.deadlock_configuration.placements.size());
      for (std::size_t i = 0; i < final_config.placements.size(); ++i) {
        EXPECT_EQ(final_config.placements[i].occupied,
                  parallel.deadlock_configuration.placements[i].occupied);
      }
    }
  }
}

TEST(ParallelPaperTest, Fig3VariantCMatchesSerial) {
  // Variant (c) violates condition 4: a reachable deadlock, found by both
  // engines.
  const core::CyclicFamily family(
      core::fig3_spec(core::Fig3Variant::kC));
  const auto specs = family.message_specs();
  const auto serial = find_deadlock(family.algorithm(), specs,
                                    AdversaryModel::kSynchronous,
                                    with_threads(1));
  const auto parallel = find_deadlock(family.algorithm(), specs,
                                      AdversaryModel::kSynchronous,
                                      with_threads(4));
  EXPECT_EQ(parallel.deadlock_found, serial.deadlock_found);
  EXPECT_EQ(serial.deadlock_found,
            !core::fig3_expected_unreachable(core::Fig3Variant::kC));
}

// --- Searches stopped by max_states ----------------------------------------

TEST(ParallelCappedSearch, StoppedEarlyResultEqualsSerial) {
  // The family-probe shape (core::probe_family_deadlock): a three-message
  // ring plus one copy of each message at its path length. Serial DFS
  // reaches its first deadlock at the 3,359th state, so a cap of 3,358
  // stops one state short of it and a cap of 3,359 just reaches it. Which
  // states a parallel run registers before the cap depends on the
  // schedule; a run stopped early must still return the threads=1 result.
  core::CyclicFamilySpec spec;
  spec.messages = {{2, 1, true}, {3, 5, true}, {2, 3, true}};
  const core::CyclicFamily family(spec);
  std::vector<sim::MessageSpec> specs = family.message_specs();
  for (std::size_t i = 0; i < family.messages().size(); ++i) {
    sim::MessageSpec copy = specs[i];
    copy.length = static_cast<std::uint32_t>(family.messages()[i].path.size());
    specs.push_back(copy);
  }
  ASSERT_EQ(specs.size(), 6u);

  for (const std::uint64_t cap : {3358u, 3359u}) {
    SearchLimits limits;
    limits.max_states = cap;
    const auto serial = find_deadlock(family.algorithm(), specs,
                                      AdversaryModel::kSynchronous,
                                      with_threads(1, limits));
    EXPECT_EQ(serial.deadlock_found, cap == 3359u);
    if (!serial.deadlock_found) {
      EXPECT_FALSE(serial.exhausted);
    }
    EXPECT_EQ(serial.states_explored, cap);
    for (const unsigned threads : {2u, 4u}) {
      for (int run = 0; run < 20; ++run) {
        const auto parallel = find_deadlock(family.algorithm(), specs,
                                            AdversaryModel::kSynchronous,
                                            with_threads(threads, limits));
        EXPECT_EQ(parallel.deadlock_found, serial.deadlock_found)
            << "cap " << cap << " threads " << threads << " run " << run;
        EXPECT_EQ(parallel.exhausted, serial.exhausted)
            << "cap " << cap << " threads " << threads << " run " << run;
        EXPECT_EQ(parallel.states_explored, serial.states_explored)
            << "cap " << cap << " threads " << threads << " run " << run;
        EXPECT_TRUE(parallel.witness_grants == serial.witness_grants)
            << "cap " << cap << " threads " << threads << " run " << run;
      }
    }
  }
}

}  // namespace
}  // namespace wormsim::analysis
