// Campaign-level differential suite for the reduction layer: the reduced
// search must be observationally identical to the unreduced one everywhere
// the campaign records an answer. Three angles:
//   - every committed disagreement fixture replays to the same outcome
//     under off and safe;
//   - a pinned-seed scenario sweep produces identical per-record outcome
//     and verdict fields in both modes (states may differ — that is the
//     point of the reduction);
//   - --cross-check-reduction mode reports zero divergences and emits
//     JSONL byte-identical to a plain campaign in the same mode.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/reduction.hpp"
#include "campaign/runner.hpp"

namespace wormsim::campaign {
namespace {

constexpr analysis::ReductionMode kAllModes[] = {
    analysis::ReductionMode::kOff, analysis::ReductionMode::kSafe};

std::vector<std::filesystem::path> committed_fixtures() {
  const std::filesystem::path dir =
      std::filesystem::path(WORMSIM_TEST_DATA_DIR) / "campaign" / "fixtures";
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().extension() == ".json") paths.push_back(entry.path());
  return paths;
}

TEST(ReductionCampaign, CommittedFixturesAgreeAcrossModes) {
  const auto fixtures = committed_fixtures();
  ASSERT_FALSE(fixtures.empty());
  for (const auto& path : fixtures) {
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open()) << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();

    for (const char* key : {"shrunk", "scenario"}) {
      const auto scenario = scenario_from_fixture(text, key);
      if (!scenario) continue;  // fixtures need not carry both objects

      EvalOptions off;
      off.probe_out_of_scope = true;  // fixtures may now be out of scope
      off.limits.reduction = analysis::ReductionMode::kOff;
      const Evaluation baseline = evaluate_scenario(*scenario, off);
      for (const analysis::ReductionMode mode : kAllModes) {
        EvalOptions options = off;
        options.limits.reduction = mode;
        const Evaluation eval = evaluate_scenario(*scenario, options);
        EXPECT_EQ(eval.outcome, baseline.outcome)
            << path << " [" << key << "] reduction="
            << analysis::to_string(mode);
        EXPECT_EQ(eval.verdict, baseline.verdict)
            << path << " [" << key << "] reduction="
            << analysis::to_string(mode);
      }
    }
  }
}

TEST(ReductionCampaign, PinnedSeedSweepIsOutcomeIdenticalAcrossModes) {
  // 500 scenarios per mode; everything except the reduction knob pinned.
  // Records carry no timing, so any divergence is a real behavioural one.
  CampaignConfig base;
  base.seed = 20260805;
  base.count = 500;
  base.shards = 1;
  base.fixture_dir = "";  // no reproducer dumps from a differential run
  base.shrink_disagreements = false;

  std::vector<CampaignResult> results;
  for (const analysis::ReductionMode mode : kAllModes) {
    CampaignConfig config = base;
    config.eval.limits.reduction = mode;
    results.push_back(run_campaign(config));
  }

  const CampaignResult& off = results[0];
  ASSERT_EQ(off.records.size(), base.count);
  ASSERT_GT(off.agree, 0u);  // the sweep must actually decide things
  for (std::size_t m = 1; m < results.size(); ++m) {
    const CampaignResult& reduced = results[m];
    ASSERT_EQ(reduced.records.size(), off.records.size());
    for (std::size_t i = 0; i < off.records.size(); ++i) {
      const ScenarioRecord& a = off.records[i];
      const ScenarioRecord& b = reduced.records[i];
      EXPECT_EQ(b.outcome, a.outcome)
          << "index " << a.index << " reduction="
          << analysis::to_string(kAllModes[m]);
      EXPECT_EQ(b.verdict, a.verdict)
          << "index " << a.index << " reduction="
          << analysis::to_string(kAllModes[m]);
      EXPECT_EQ(b.skip_reason, a.skip_reason) << "index " << a.index;
    }
    EXPECT_EQ(reduced.agree, off.agree);
    EXPECT_EQ(reduced.disagree, off.disagree);
    EXPECT_EQ(reduced.skip, off.skip);
  }
}

TEST(ReductionCampaign, CrossCheckModeIsByteIdenticalAndDivergenceFree) {
  CampaignConfig plain;
  plain.seed = 911;
  plain.count = 60;
  plain.shards = 1;
  plain.fixture_dir = "";
  plain.shrink_disagreements = false;

  CampaignConfig checked = plain;
  checked.eval.cross_check_reduction = true;

  const CampaignResult a = run_campaign(plain);
  const CampaignResult b = run_campaign(checked);

  EXPECT_EQ(b.reduction_divergences, 0u);
  // The recorded arm of a cross-check run IS the plain default (safe)
  // run, with off as the shadow reference: identical JSONL bytes, so
  // operators can flip the flag on and off without perturbing diffs or
  // caches.
  std::ostringstream ja, jb;
  a.write_jsonl(ja);
  b.write_jsonl(jb);
  EXPECT_EQ(ja.str(), jb.str());
}

TEST(ReductionCampaign, CrossCheckHonorsRequestedReducedMode) {
  // With --reduction off --cross-check-reduction, the recorded arm runs
  // off (same bytes as a plain off campaign), and the shadow arm runs
  // safe; no divergences.
  CampaignConfig config;
  config.seed = 1709;
  config.count = 40;
  config.shards = 1;
  config.fixture_dir = "";
  config.shrink_disagreements = false;
  config.eval.cross_check_reduction = true;
  config.eval.limits.reduction = analysis::ReductionMode::kOff;

  CampaignConfig plain = config;
  plain.eval.cross_check_reduction = false;

  const CampaignResult checked = run_campaign(config);
  const CampaignResult baseline = run_campaign(plain);
  EXPECT_EQ(checked.reduction_divergences, 0u);
  std::ostringstream ja, jb;
  checked.write_jsonl(ja);
  baseline.write_jsonl(jb);
  EXPECT_EQ(ja.str(), jb.str());
}

}  // namespace
}  // namespace wormsim::campaign
