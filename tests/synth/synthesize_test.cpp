// Synthesizer: the consistency contract over the instance menu, the
// cyclic-CDG preference on the paper's figures, simulator drive-through,
// and table JSON round-trips.
#include <gtest/gtest.h>

#include <string>

#include "cdg/cdg.hpp"
#include "core/analyzer.hpp"
#include "routing/table_io.hpp"
#include "synth/instances.hpp"
#include "synth/synthesize.hpp"

namespace wormsim::synth {
namespace {

SynthesisResult synthesize_instance(const SynthInstance& inst,
                                    SynthesisGoal goal) {
  SynthesisOptions options;
  options.goal = goal;
  options.existence.hint_order = inst.hint_order;
  options.seed_paths = inst.seed_paths;
  return synthesize(*inst.net, inst.pairs, options);
}

TEST(Synthesize, MenuMatrixHonorsTheConsistencyContract) {
  bool any_cyclic = false;
  for (const std::string& name : instance_names()) {
    const SynthInstance inst = make_synth_instance(name);
    const SynthesisResult result =
        synthesize_instance(inst, SynthesisGoal::kPreferCyclic);
    SCOPED_TRACE(name + ": " + result.note);

    // Analyzer verdict must be consistent with the synthesis outcome.
    if (result.existence.verdict == ExistenceVerdict::kExists) {
      ASSERT_NE(result.table, nullptr);
      EXPECT_NE(result.kind, TableKind::kNone);
    }
    if (result.existence.verdict == ExistenceVerdict::kNotExists &&
        result.table != nullptr) {
      // Only a verified-cyclic (synchronous-model) table may contradict a
      // robust-existence refusal.
      EXPECT_EQ(result.kind, TableKind::kCyclicVerified);
    }
    if (inst.expectation == Expectation::kMustExist)
      EXPECT_EQ(result.existence.verdict, ExistenceVerdict::kExists);
    if (inst.expectation == Expectation::kMustNotExist)
      EXPECT_EQ(result.existence.verdict, ExistenceVerdict::kNotExists);

    if (result.table != nullptr) {
      // Every emitted table passes the exhaustive deadlock search...
      const core::AlgorithmAnalysis check =
          core::analyze_algorithm(*result.table);
      EXPECT_TRUE(check.verdict == core::CycleVerdict::kAcyclicCdg ||
                  check.verdict == core::CycleVerdict::kFalseResourceCycle);
      EXPECT_EQ(check.cyclic_scc_count > 0, result.cdg_cyclic);
      EXPECT_EQ(check.cyclic_scc_count > 0,
                result.kind == TableKind::kCyclicVerified);
      // ...and drives a clean simulator run.
      EXPECT_TRUE(simulate_clean(*result.table, inst.pairs));
      any_cyclic = any_cyclic || result.cdg_cyclic;
    }
  }
  // At least one synthesized table has a cyclic CDG — the Schwiebert-style
  // answer the plain acyclicity check would reject.
  EXPECT_TRUE(any_cyclic);
}

TEST(Synthesize, Fig1PrefersThePaperStyleCyclicTable) {
  const SynthInstance inst = make_synth_instance("fig1");
  const SynthesisResult result =
      synthesize_instance(inst, SynthesisGoal::kPreferCyclic);
  ASSERT_EQ(result.kind, TableKind::kCyclicVerified);
  ASSERT_NE(result.table, nullptr);
  EXPECT_EQ(result.verdict, core::CycleVerdict::kFalseResourceCycle);
  EXPECT_FALSE(cdg::ChannelDependencyGraph::build(*result.table).acyclic());
  EXPECT_TRUE(simulate_clean(*result.table, inst.pairs));
}

TEST(Synthesize, Fig1RobustGoalFallsBackToAnAcyclicTable) {
  // fig1's pair demand also admits an acyclic routing (via the alternate
  // ring entries), so the robust goal must find it without a cyclic search.
  const SynthInstance inst = make_synth_instance("fig1");
  const SynthesisResult result =
      synthesize_instance(inst, SynthesisGoal::kRobustAcyclic);
  ASSERT_EQ(result.kind, TableKind::kAcyclicCertified);
  ASSERT_NE(result.table, nullptr);
  EXPECT_FALSE(result.cdg_cyclic);
  EXPECT_EQ(result.assignments_tried, 0u);
  EXPECT_TRUE(cdg::ChannelDependencyGraph::build(*result.table).acyclic());
}

TEST(Synthesize, TableFromOrderCompilesEveryPair) {
  const SynthInstance inst = make_synth_instance("torus3x3");
  ExistenceOptions options;
  const ExistenceCertificate cert =
      analyze_existence(*inst.net, inst.pairs, options);
  ASSERT_EQ(cert.verdict, ExistenceVerdict::kExists);
  const auto table = table_from_order(*inst.net, inst.pairs, cert.order);
  ASSERT_NE(table, nullptr);
  for (const NodePair& p : inst.pairs)
    EXPECT_TRUE(table->routes(p.src, p.dst));
  EXPECT_TRUE(cdg::ChannelDependencyGraph::build(*table).acyclic());
}

TEST(Synthesize, SynthesizedTableSurvivesAJsonRoundTrip) {
  const SynthInstance inst = make_synth_instance("fig1");
  const SynthesisResult result =
      synthesize_instance(inst, SynthesisGoal::kPreferCyclic);
  ASSERT_NE(result.table, nullptr);

  const std::string text = routing::table_to_json(*result.table);
  const routing::TableLoadResult loaded =
      routing::table_from_json(*inst.net, text);
  ASSERT_TRUE(loaded.ok()) << loaded.error;

  // The reloaded table re-verifies to the same verdict and drives the same
  // clean run — the dump/load cycle loses nothing the checker can see.
  const core::AlgorithmAnalysis before = core::analyze_algorithm(*result.table);
  const core::AlgorithmAnalysis after = core::analyze_algorithm(*loaded.table);
  EXPECT_EQ(before.verdict, after.verdict);
  EXPECT_EQ(before.cyclic_scc_count > 0, after.cyclic_scc_count > 0);
  EXPECT_TRUE(simulate_clean(*loaded.table, inst.pairs));
}

TEST(Synthesize, EnumeratePathsIsShortestFirstAndBounded) {
  const topo::Network net = topo::make_unidirectional_ring(5);
  const auto paths = enumerate_paths(net, {NodeId{0}, NodeId{3}},
                                     /*max_paths=*/4, /*max_slack=*/2);
  ASSERT_FALSE(paths.empty());
  // A unidirectional ring has exactly one simple path per pair.
  EXPECT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths.front().size(), 3u);
}

}  // namespace
}  // namespace wormsim::synth
