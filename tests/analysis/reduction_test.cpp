// Unit tests for the twin-chain primitive on hand-built tie sets, plus the
// differential suite: reduced (kSafe, the default) and unreduced (kOff)
// find_deadlock must agree on the verdict — and on exhaustion whenever no
// deadlock is found — for every paper network. DESIGN.md §12 has the
// soundness arguments these tests pin down mechanically.
#include "analysis/reduction.hpp"

#include <gtest/gtest.h>

#include "analysis/configuration.hpp"
#include "analysis/deadlock_search.hpp"
#include "core/cyclic_family.hpp"
#include "core/paper_networks.hpp"
#include "routing/dor.hpp"
#include "routing/node_table.hpp"
#include "topo/builders.hpp"

namespace wormsim::analysis {
namespace {

sim::MessageRequests make_request(std::size_t id, bool moving,
                                  std::vector<ChannelId> channels) {
  sim::MessageRequests r;
  r.message = MessageId{id};
  r.moving = moving;
  r.channels = std::move(channels);
  return r;
}

sim::MessageSpec make_spec(std::size_t src, std::size_t dst,
                           std::uint32_t length) {
  return {NodeId{src}, NodeId{dst}, length, 0};
}

ChannelId ch(std::size_t i) { return ChannelId{i}; }

TEST(TwinSiblings, IdenticalPendingMessagesChain) {
  const std::vector<sim::MessageSpec> specs = {
      make_spec(0, 3, 2), make_spec(0, 3, 2), make_spec(0, 3, 2)};
  const std::vector<sim::MessageRequests> requests = {
      make_request(0, false, {ch(0)}), make_request(1, false, {ch(0)}),
      make_request(2, false, {ch(0)})};
  const auto next = twin_next_siblings(requests, specs);
  ASSERT_EQ(next.size(), 3u);
  EXPECT_EQ(next[0], 1u);
  EXPECT_EQ(next[1], 2u);
  EXPECT_EQ(next[2], kNoTwin);
}

TEST(TwinSiblings, MovingMessagesNeverChain) {
  // Identical specs, but in-flight copies are distinguishable (their held
  // channels differ), so no chain may include them.
  const std::vector<sim::MessageSpec> specs = {make_spec(0, 3, 2),
                                               make_spec(0, 3, 2)};
  const std::vector<sim::MessageRequests> requests = {
      make_request(0, true, {ch(0)}), make_request(1, true, {ch(0)})};
  const auto next = twin_next_siblings(requests, specs);
  EXPECT_EQ(next[0], kNoTwin);
  EXPECT_EQ(next[1], kNoTwin);
}

TEST(TwinSiblings, DifferentSpecsOrChannelsSplitClasses) {
  const std::vector<sim::MessageSpec> specs = {
      make_spec(0, 3, 2), make_spec(0, 3, 3),   // different length
      make_spec(0, 3, 2), make_spec(0, 3, 2)};  // 3: different candidates
  const std::vector<sim::MessageRequests> requests = {
      make_request(0, false, {ch(0)}), make_request(1, false, {ch(0)}),
      make_request(2, false, {ch(0)}), make_request(3, false, {ch(1)})};
  const auto next = twin_next_siblings(requests, specs);
  EXPECT_EQ(next[0], 2u);  // 0 and 2 share spec and candidates
  EXPECT_EQ(next[1], kNoTwin);
  EXPECT_EQ(next[2], kNoTwin);
  EXPECT_EQ(next[3], kNoTwin);
}

TEST(TwinSiblings, SpentDelaySplitsClassesWhenProvided) {
  const std::vector<sim::MessageSpec> specs = {make_spec(0, 3, 2),
                                               make_spec(0, 3, 2)};
  const std::vector<sim::MessageRequests> requests = {
      make_request(0, false, {ch(0)}), make_request(1, false, {ch(0)})};
  const std::vector<std::uint32_t> spent = {0, 1};
  EXPECT_EQ(twin_next_siblings(requests, specs, spent)[0], kNoTwin);
  const std::vector<std::uint32_t> equal_spent = {1, 1};
  EXPECT_EQ(twin_next_siblings(requests, specs, equal_spent)[0], 1u);
}

TEST(ReductionModeNames, RoundTrip) {
  for (const ReductionMode m : {ReductionMode::kOff, ReductionMode::kSafe})
    EXPECT_EQ(reduction_from_string(to_string(m)), m);
  EXPECT_FALSE(reduction_from_string("bogus").has_value());
  EXPECT_FALSE(reduction_from_string("on").has_value());  // retired mode
  EXPECT_EQ(SearchLimits{}.reduction, ReductionMode::kSafe);
}

// ---------------------------------------------------------------------------
// Differential suite: verdicts must agree across both modes.

struct ModeRun {
  ReductionMode mode;
  DeadlockSearchResult result;
};

std::vector<ModeRun> run_all_modes(const routing::RoutingAlgorithm& alg,
                                   std::span<const sim::MessageSpec> specs,
                                   AdversaryModel model,
                                   SearchLimits limits = {}) {
  std::vector<ModeRun> runs;
  for (const ReductionMode m : {ReductionMode::kOff, ReductionMode::kSafe}) {
    limits.reduction = m;
    runs.push_back({m, find_deadlock(alg, specs, model, limits)});
  }
  return runs;
}

void expect_agreement(const std::vector<ModeRun>& runs,
                      const routing::RoutingAlgorithm& alg) {
  const ModeRun& base = runs.front();
  for (const ModeRun& run : runs) {
    SCOPED_TRACE(std::string("reduction=") + to_string(run.mode));
    EXPECT_EQ(run.result.deadlock_found, base.result.deadlock_found);
    // Exhaustion is only comparable on negative verdicts: a reduced search
    // that finds a deadlock may stop before covering components the
    // unreduced search happened to sweep first.
    if (!base.result.deadlock_found)
      EXPECT_EQ(run.result.exhausted, base.result.exhausted);
    if (run.result.deadlock_found) {
      // Whatever witness each mode found must replay to a legal frozen
      // Definition-6 configuration.
      EXPECT_TRUE(is_deadlock_shaped(run.result.deadlock_configuration, alg));
      EXPECT_TRUE(
          check_legal(run.result.deadlock_configuration, alg, 1).legal);
      EXPECT_FALSE(run.result.witness_grants.empty() &&
                   run.result.witness.empty());
    }
  }
}

TEST(ReductionDifferential, RingDeadlockAllModes) {
  const topo::Network net = topo::make_unidirectional_ring(4);
  routing::NodeTable table(net);
  for (std::size_t s = 0; s < 4; ++s)
    for (std::size_t d = 0; d < 4; ++d)
      if (s != d)
        table.set(NodeId{s}, NodeId{d},
                  *net.find_channel(NodeId{s}, NodeId{(s + 1) % 4}));
  std::vector<sim::MessageSpec> specs;
  for (std::size_t s = 0; s < 4; ++s)
    specs.push_back(make_spec(s, (s + 2) % 4, 2));
  const auto runs = run_all_modes(table, specs,
                                  AdversaryModel::kSynchronous);
  EXPECT_TRUE(runs.front().result.deadlock_found);
  expect_agreement(runs, table);
}

TEST(ReductionDifferential, Fig1SafetyProofAllModes) {
  const core::CyclicFamily family(core::fig1_spec());
  const auto runs =
      run_all_modes(family.algorithm(), family.message_specs(),
                    AdversaryModel::kSynchronous);
  EXPECT_FALSE(runs.front().result.deadlock_found);
  EXPECT_TRUE(runs.front().result.exhausted);
  expect_agreement(runs, family.algorithm());
}

TEST(ReductionDifferential, Fig1DoubledCopiesAllModes) {
  // The ISSUE's headline instance: two identical copies of every Figure-1
  // message. Twin symmetry should cut the state count, not the verdict.
  const core::CyclicFamily family(core::fig1_spec());
  const auto base = family.message_specs();
  std::vector<sim::MessageSpec> specs;
  specs.insert(specs.end(), base.begin(), base.end());
  specs.insert(specs.end(), base.begin(), base.end());
  const auto runs = run_all_modes(family.algorithm(), specs,
                                  AdversaryModel::kSynchronous);
  EXPECT_FALSE(runs.front().result.deadlock_found);
  EXPECT_TRUE(runs.front().result.exhausted);
  expect_agreement(runs, family.algorithm());
  EXPECT_LT(runs[1].result.states_explored,
            runs[0].result.states_explored);
}

TEST(ReductionDifferential, Fig2DeadlockAllModes) {
  const core::CyclicFamily family(core::fig2_spec());
  const auto runs =
      run_all_modes(family.algorithm(), family.message_specs(),
                    AdversaryModel::kSynchronous);
  EXPECT_TRUE(runs.front().result.deadlock_found);
  expect_agreement(runs, family.algorithm());
}

TEST(ReductionDifferential, Fig3AllVariantsAllModes) {
  for (const core::Fig3Variant v :
       {core::Fig3Variant::kA, core::Fig3Variant::kB, core::Fig3Variant::kC,
        core::Fig3Variant::kD, core::Fig3Variant::kE,
        core::Fig3Variant::kF}) {
    SCOPED_TRACE(core::fig3_name(v));
    const core::CyclicFamily family(core::fig3_spec(v));
    const auto runs =
        run_all_modes(family.algorithm(), family.message_specs(),
                      AdversaryModel::kSynchronous);
    expect_agreement(runs, family.algorithm());
  }
}

TEST(ReductionDifferential, DallySeitzTorusAllModes) {
  const topo::Grid grid = topo::make_torus({4, 4}, 2);
  const routing::TorusDateline dor(grid);
  std::vector<sim::MessageSpec> specs;
  // A wrap-heavy multiset: corners exchanging across both datelines.
  specs.push_back(make_spec(0, 15, 3));
  specs.push_back(make_spec(15, 0, 3));
  specs.push_back(make_spec(3, 12, 3));
  specs.push_back(make_spec(12, 3, 3));
  const auto runs =
      run_all_modes(dor, specs, AdversaryModel::kSynchronous);
  EXPECT_FALSE(runs.front().result.deadlock_found);
  EXPECT_TRUE(runs.front().result.exhausted);
  expect_agreement(runs, dor);
}

TEST(ReductionDifferential, BoundedDelayModelAllModes) {
  const core::CyclicFamily family(core::fig1_spec());
  for (const std::uint32_t budget : {0u, 1u, 2u}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    SearchLimits limits;
    limits.delay_budget = budget;
    const auto runs =
        run_all_modes(family.algorithm(), family.message_specs(),
                      AdversaryModel::kBoundedDelay, limits);
    expect_agreement(runs, family.algorithm());
  }
}

TEST(ReductionDifferential, MinimalDelayAgreesAcrossModes) {
  const core::CyclicFamily family(core::fig1_spec());
  std::optional<std::uint32_t> baseline;
  for (const ReductionMode m : {ReductionMode::kOff, ReductionMode::kSafe}) {
    SCOPED_TRACE(std::string("reduction=") + to_string(m));
    SearchLimits limits;
    limits.reduction = m;
    bool exhausted = false;
    const auto min_delay = minimal_deadlock_delay(
        family.algorithm(), family.message_specs(), DelayMetric::kTotal, 3,
        limits, &exhausted);
    if (m == ReductionMode::kOff) baseline = min_delay;
    EXPECT_EQ(min_delay, baseline);
  }
}

// Two channel-disjoint 4-rings in one network: the root decomposition must
// fire (components = 2) and keep verdicts intact whether the deadlock lives
// in the first-searched component, the second, or neither.
class TwoRingsTest : public ::testing::Test {
 protected:
  TwoRingsTest() {
    for (std::size_t n = 0; n < 8; ++n) net_.add_node("n" + std::to_string(n));
    for (std::size_t ring = 0; ring < 2; ++ring)
      for (std::size_t s = 0; s < 4; ++s) {
        const std::size_t from = ring * 4 + s;
        const std::size_t to = ring * 4 + (s + 1) % 4;
        net_.add_channel(NodeId{from}, NodeId{to});
      }
    table_ = std::make_unique<routing::NodeTable>(net_);
    for (std::size_t ring = 0; ring < 2; ++ring)
      for (std::size_t s = 0; s < 4; ++s)
        for (std::size_t d = 0; d < 4; ++d)
          if (s != d)
            table_->set(
                NodeId{ring * 4 + s}, NodeId{ring * 4 + d},
                *net_.find_channel(NodeId{ring * 4 + s},
                                   NodeId{ring * 4 + (s + 1) % 4}));
  }
  /// Ring traffic: hop 2 wedges the ring, hop 1 is provably safe.
  std::vector<sim::MessageSpec> ring_traffic(std::size_t ring,
                                             std::size_t hop) const {
    std::vector<sim::MessageSpec> specs;
    for (std::size_t s = 0; s < 4; ++s)
      specs.push_back(make_spec(ring * 4 + s, ring * 4 + (s + hop) % 4, 2));
    return specs;
  }
  topo::Network net_;
  std::unique_ptr<routing::NodeTable> table_;
};

TEST_F(TwoRingsTest, DecompositionPreservesBothVerdicts) {
  for (const bool wedge_second : {false, true}) {
    SCOPED_TRACE(wedge_second ? "deadlock in second component"
                              : "deadlock in first component");
    auto specs = ring_traffic(wedge_second ? 0 : 1, 1);  // safe component
    const auto wedged = ring_traffic(wedge_second ? 1 : 0, 2);
    specs.insert(wedge_second ? specs.end() : specs.begin(), wedged.begin(),
                 wedged.end());
    const auto runs = run_all_modes(*table_, specs,
                                    AdversaryModel::kSynchronous);
    EXPECT_TRUE(runs.front().result.deadlock_found);
    expect_agreement(runs, *table_);
  }
}

TEST_F(TwoRingsTest, DecompositionProvesDisjointSafety) {
  auto specs = ring_traffic(0, 1);
  const auto second = ring_traffic(1, 1);
  specs.insert(specs.end(), second.begin(), second.end());
  const auto runs = run_all_modes(*table_, specs,
                                  AdversaryModel::kSynchronous);
  EXPECT_FALSE(runs.front().result.deadlock_found);
  EXPECT_TRUE(runs.front().result.exhausted);
  expect_agreement(runs, *table_);
  // The decomposed search explores the sum, not the product, of the two
  // rings' spaces.
  EXPECT_LT(runs[1].result.states_explored,
            runs[0].result.states_explored);
}

TEST_F(TwoRingsTest, DecomposedWitnessReplaysOnFullNetwork) {
  auto specs = ring_traffic(0, 1);  // safe ring first
  const auto wedged = ring_traffic(1, 2);
  specs.insert(specs.end(), wedged.begin(), wedged.end());
  SearchLimits limits;
  limits.reduction = ReductionMode::kSafe;
  const auto result = find_deadlock(*table_, specs,
                                    AdversaryModel::kSynchronous, limits);
  ASSERT_TRUE(result.deadlock_found);
  // Replay the machine witness from scratch; it must reproduce a frozen
  // state (step_with_grants validates every grant as it goes).
  sim::SimConfig config;
  sim::WormholeSimulator replay(*table_, config);
  for (const sim::MessageSpec& spec : specs) replay.add_message(spec);
  for (const auto& cycle : result.witness_grants)
    replay.step_with_grants(cycle);
  EXPECT_FALSE(replay.all_consumed());
  sim::WormholeSimulator probe(replay);
  EXPECT_FALSE(probe.step_with_grants({}));
  EXPECT_EQ(result.witness.size(), result.witness_grants.size());
}

}  // namespace
}  // namespace wormsim::analysis
