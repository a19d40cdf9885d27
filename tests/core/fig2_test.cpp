// Figure 2 / Theorem 4: when a channel outside the cycle is shared by
// exactly two messages, the cycle always forms a deadlock — the messages
// can use c_s consecutively, longer-access message first.
#include <gtest/gtest.h>

#include "analysis/deadlock_search.hpp"
#include "core/analyzer.hpp"
#include "core/cyclic_family.hpp"
#include "core/theorems.hpp"
#include "sim/simulator.hpp"

namespace wormsim::core {
namespace {

TEST(Fig2, TheoremFourApplies) {
  const CyclicFamily family(fig2_spec());
  EXPECT_TRUE(theorem4_applies(family.spec()));
  EXPECT_FALSE(theorem4_applies(fig1_spec()));
}

TEST(Fig2, DeadlockReachable) {
  const CyclicFamily family(fig2_spec());
  const auto result = analysis::find_deadlock(
      family.algorithm(), family.message_specs(),
      analysis::AdversaryModel::kSynchronous, {});
  ASSERT_TRUE(result.deadlock_found);
  EXPECT_EQ(result.deadlock_cycle.size(), 2u);
  EXPECT_TRUE(analysis::is_deadlock_shaped(result.deadlock_configuration,
                                           family.algorithm()));
}

TEST(Fig2, AnalyzerVerdictIsDeadlockReachable) {
  const CyclicFamily family(fig2_spec());
  const auto analysis = analyze_algorithm(family.algorithm());
  EXPECT_EQ(analysis.verdict, CycleVerdict::kDeadlockReachable);
}

/// The paper's Section-3 adversary as a policy: "when one of these messages
/// can lead to a deadlock, that message is assumed to acquire the channel".
/// For Figure 2 that means the longer-access message (m1) wins the shared
/// channel, while each message wins its own ring-entry race against the
/// other's escape attempt.
class Fig2Oracle final : public sim::ArbitrationPolicy {
 public:
  Fig2Oracle(ChannelId shared, ChannelId entry0, ChannelId entry1)
      : shared_(shared), entry0_(entry0), entry1_(entry1) {}
  [[nodiscard]] std::uint64_t rank(
      const sim::ChannelRequest& r) const override {
    MessageId want = MessageId::invalid();
    if (r.channel == shared_) want = MessageId{1u};
    if (r.channel == entry0_) want = MessageId{0u};
    if (r.channel == entry1_) want = MessageId{1u};
    return r.message == want ? 0 : 1;
  }

 private:
  ChannelId shared_, entry0_, entry1_;
};

TEST(Fig2, ProofOrder_LongerAccessFirstDeadlocksUnderAdversarialTies) {
  // The proof injects the longer-access message first (the shared channel
  // goes to m1) and breaks every later tie toward the deadlock — exactly
  // Section 3's adversarial-arbitration assumption.
  const CyclicFamily family(fig2_spec());
  const Fig2Oracle policy(family.shared_channel(),
                          family.messages()[0].entry,
                          family.messages()[1].entry);
  sim::SimConfig config;
  config.check_invariants = true;
  sim::WormholeSimulator sim(family.algorithm(), config, policy);
  for (const auto& spec : family.message_specs()) sim.add_message(spec);
  const auto result = sim.run();
  EXPECT_EQ(result.outcome, sim::RunOutcome::kDeadlock);
  EXPECT_EQ(result.deadlock_cycle.size(), 2u);
}

TEST(Fig2, OppositeOrderDrains) {
  // Injected shorter-access first, the pair drains: the deadlock needs the
  // proof's ordering.
  const CyclicFamily family(fig2_spec());
  sim::PriorityArbitration policy({0, 1});
  sim::WormholeSimulator sim(family.algorithm(), sim::SimConfig{}, policy);
  for (const auto& spec : family.message_specs()) sim.add_message(spec);
  EXPECT_EQ(sim.run().outcome, sim::RunOutcome::kAllConsumed);
}

class Fig2Sweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(Fig2Sweep, TwoSharersAlwaysDeadlock) {
  // Theorem 4 is unconditional over the family geometry: sweep segment
  // lengths; every instance deadlocks.
  const auto [h1, h2] = GetParam();
  CyclicFamilySpec spec;
  spec.name = "fig2-sweep";
  spec.messages = {{2, h1, true}, {3, h2, true}};
  const CyclicFamily family(spec);
  const auto probe = probe_family_deadlock(family);
  EXPECT_TRUE(probe.deadlock_found)
      << "h1=" << h1 << " h2=" << h2;
}

INSTANTIATE_TEST_SUITE_P(
    SegmentLengths, Fig2Sweep,
    ::testing::Values(std::pair{2, 2}, std::pair{2, 5}, std::pair{3, 4},
                      std::pair{4, 3}, std::pair{5, 2}, std::pair{5, 5}),
    [](const auto& param_info) {
      return "h" + std::to_string(param_info.param.first) + "_" +
             std::to_string(param_info.param.second);
    });

}  // namespace
}  // namespace wormsim::core
