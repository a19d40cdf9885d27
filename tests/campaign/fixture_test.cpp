// Replay of committed disagreement fixtures.
//
// Each fixture under tests/campaign/fixtures/ is a shrunk reproducer the
// campaign once flagged, with its triage note. Replaying them pins both
// halves of the resolution: the search outcome that refuted the original
// prediction must stay refuting (ground truth is stable), and the current
// classifier must no longer disagree (the scope fix holds).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "campaign/runner.hpp"
#include "core/theorems.hpp"

namespace wormsim::campaign {
namespace {

std::string read_fixture(const std::string& name) {
  const std::string path =
      std::string(WORMSIM_TEST_DATA_DIR) + "/campaign/fixtures/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(Theorem5InterposedFixture, ShrunkReproducerStillDeadlocks) {
  const std::string text = read_fixture("theorem5_interposed.json");
  const auto shrunk = scenario_from_fixture(text, "shrunk");
  ASSERT_TRUE(shrunk.has_value());
  ASSERT_EQ(shrunk->kind, ScenarioKind::kFamily);
  ASSERT_EQ(shrunk->family.messages.size(), 4u);

  // The instance passes all eight Theorem-5 conditions — that is exactly
  // why the unscoped classifier claimed it unreachable...
  const auto report = core::evaluate_theorem5(shrunk->family);
  ASSERT_TRUE(report.applicable);
  EXPECT_TRUE(report.all_hold()) << report.describe();

  // ...and the search proves it deadlocks anyway. probe_out_of_scope makes
  // the replay run the ground truth even though the scoped classifier now
  // abstains.
  EvalOptions options;
  options.probe_out_of_scope = true;
  const Evaluation eval = evaluate_scenario(*shrunk, options);
  EXPECT_EQ(eval.outcome, SearchOutcome::kDeadlock);

  // The scope fix: the rule is open, so the verdict is a skip, not a
  // disagreement. A regression to the old over-broad rule flips this.
  EXPECT_EQ(eval.classification.rule, "theorem5-open");
  EXPECT_NE(eval.verdict, Verdict::kDisagree);
}

TEST(Theorem5InterposedFixture, OriginalScenarioAlsoResolved) {
  const std::string text = read_fixture("theorem5_interposed.json");
  const auto original = scenario_from_fixture(text, "scenario");
  ASSERT_TRUE(original.has_value());
  const Evaluation eval = evaluate_scenario(*original, {});
  EXPECT_EQ(eval.classification.rule, "theorem5-open");
  EXPECT_NE(eval.verdict, Verdict::kDisagree);
}

}  // namespace
}  // namespace wormsim::campaign
