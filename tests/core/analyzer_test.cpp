#include "core/analyzer.hpp"

#include <gtest/gtest.h>

#include "core/cyclic_family.hpp"
#include "routing/dor.hpp"
#include "routing/node_table.hpp"
#include "topo/builders.hpp"

namespace wormsim::core {
namespace {

TEST(Analyzer, DorMeshIsAcyclicWithCertificate) {
  const topo::Grid grid = topo::make_mesh({3, 3});
  const routing::DimensionOrderMesh dor(grid);
  const auto analysis = analyze_algorithm(dor);
  EXPECT_EQ(analysis.verdict, CycleVerdict::kAcyclicCdg);
  ASSERT_TRUE(analysis.numbering.has_value());
  const auto graph = cdg::ChannelDependencyGraph::build(dor);
  EXPECT_TRUE(graph.verify_numbering(*analysis.numbering));
}

TEST(Analyzer, TorusDatelineIsAcyclic) {
  const topo::Grid grid = topo::make_torus({4, 4}, 2);
  const routing::TorusDateline dor(grid);
  EXPECT_EQ(analyze_algorithm(dor).verdict, CycleVerdict::kAcyclicCdg);
}

TEST(Analyzer, RingRoutingIsDeadlockReachable) {
  const topo::Network net = topo::make_unidirectional_ring(4);
  routing::NodeTable table(net);
  for (std::size_t s = 0; s < 4; ++s)
    for (std::size_t d = 0; d < 4; ++d)
      if (s != d)
        table.set(NodeId{s}, NodeId{d},
                  *net.find_channel(NodeId{s}, NodeId{(s + 1) % 4}));
  const auto analysis = analyze_algorithm(table);
  EXPECT_EQ(analysis.verdict, CycleVerdict::kDeadlockReachable);
  EXPECT_TRUE(analysis.search.deadlock_found);
}

TEST(Analyzer, Fig1IsFalseResourceCycle) {
  const CyclicFamily family(fig1_spec());
  const auto analysis = analyze_algorithm(family.algorithm());
  EXPECT_EQ(analysis.verdict, CycleVerdict::kFalseResourceCycle);
  EXPECT_TRUE(analysis.search.exhausted);
}

TEST(Analyzer, DuplicateProbeOptionStillSafeOnFig1) {
  // The Theorem-1 proof's "more than four messages" case: one extra copy
  // of each probe message still reaches no deadlock.
  const CyclicFamily family(fig1_spec());
  const auto graph = cdg::ChannelDependencyGraph::build(family.algorithm());
  const auto base = derive_probe_messages(family.algorithm(), graph);
  std::vector<sim::MessageSpec> probe = base;
  probe.insert(probe.end(), base.begin(), base.end());
  const auto search = analysis::find_deadlock(
      family.algorithm(), probe, analysis::AdversaryModel::kSynchronous, {});
  EXPECT_FALSE(search.deadlock_found);
  EXPECT_TRUE(search.exhausted);
}

TEST(Analyzer, TightStateBoundGivesInconclusive) {
  const CyclicFamily family(fig1_spec());
  analysis::SearchLimits limits;
  limits.max_states = 5;
  const auto analysis = analyze_algorithm(family.algorithm(), limits);
  EXPECT_EQ(analysis.verdict, CycleVerdict::kInconclusive);
}

TEST(Analyzer, ProbeMessagesCoverEveryRingWitness) {
  const CyclicFamily family(fig1_spec());
  const auto graph = cdg::ChannelDependencyGraph::build(family.algorithm());
  const auto probes = derive_probe_messages(family.algorithm(), graph);
  // The four ring messages are exactly the witnesses of the cycle edges.
  EXPECT_EQ(probes.size(), 4u);
  for (const auto& p : probes) {
    EXPECT_EQ(p.src, family.src_node());
    // Minimum length = channels the message must hold = its segment length
    // (the route's in-cycle channels minus the blocked-on channel).
    bool matched = false;
    for (const auto& info : family.messages())
      if (info.dest == p.dst)
        matched = p.length == static_cast<std::uint32_t>(info.params.hold);
    EXPECT_TRUE(matched);
  }
}

TEST(Analyzer, ToStringCoversAllVerdicts) {
  EXPECT_STREQ(to_string(CycleVerdict::kAcyclicCdg), "acyclic-cdg");
  EXPECT_STREQ(to_string(CycleVerdict::kFalseResourceCycle),
               "false-resource-cycle");
  EXPECT_STREQ(to_string(CycleVerdict::kDeadlockReachable),
               "deadlock-reachable");
  EXPECT_STREQ(to_string(CycleVerdict::kInconclusive), "inconclusive");
}

}  // namespace
}  // namespace wormsim::core
