// Memo knobs against the campaign truth cache.
//
// A byte-budgeted memo table can stop a search short of exhaustion, so its
// recorded outcomes may differ from an unbudgeted run's and
// limits.memo_budget_bytes must fold into the campaign truth fingerprint.
// The schedule-only knobs (threads, steal granularity, which equivalent
// witness is reported) never change a verdict and must not re-namespace
// the cache.
#include <gtest/gtest.h>

#include "campaign/runner.hpp"
#include "campaign/truth_store.hpp"

namespace wormsim::campaign {
namespace {

CampaignConfig sweep_config() {
  CampaignConfig config;
  config.seed = 77;
  config.count = 500;
  config.shards = 2;
  config.fixture_dir.clear();
  config.shrink_disagreements = false;
  config.eval.limits.max_states = 400'000;
  return config;
}

TEST(ProbationCampaign, MemoKnobsFoldIntoTruthFingerprint) {
  const CampaignConfig base = sweep_config();
  const std::uint64_t exact_fp = campaign_truth_fingerprint(base.eval);

  CampaignConfig budgeted = sweep_config();
  budgeted.eval.limits.memo_budget_bytes = 1 << 20;
  EXPECT_NE(campaign_truth_fingerprint(budgeted.eval), exact_fp);

  CampaignConfig other_budget = sweep_config();
  other_budget.eval.limits.memo_budget_bytes = 1 << 21;
  EXPECT_NE(campaign_truth_fingerprint(other_budget.eval),
            campaign_truth_fingerprint(budgeted.eval));

  CampaignConfig sched = sweep_config();
  sched.eval.limits.threads = 8;
  EXPECT_EQ(campaign_truth_fingerprint(sched.eval), exact_fp);
}

}  // namespace
}  // namespace wormsim::campaign
