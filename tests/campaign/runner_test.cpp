// Campaign runner: verdict logic, sharding determinism, JSONL stability,
// persistent truth-cache behaviour, and resume from a live run's appends.
#include "campaign/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/cyclic_family.hpp"
#include "test_support.hpp"

namespace wormsim::campaign {
namespace {

CampaignConfig small_config(unsigned shards) {
  CampaignConfig config;
  config.seed = 2026;
  config.count = 30;
  config.shards = shards;
  config.fixture_dir.clear();  // no fixture files from unit tests
  config.eval.limits.max_states = 400'000;
  return config;
}

std::string jsonl_of(const CampaignResult& result) {
  std::ostringstream os;
  result.write_jsonl(os);
  return os.str();
}

TEST(EvaluateScenario, Theorem2FamilyAgrees) {
  Scenario s;
  s.kind = ScenarioKind::kFamily;
  s.family.name = "t2";
  s.family.messages = {{2, 2, true}, {1, 3, false}};
  const Evaluation eval = evaluate_scenario(s, {});
  EXPECT_EQ(eval.classification.rule, "theorem2");
  EXPECT_EQ(eval.outcome, SearchOutcome::kDeadlock);
  EXPECT_EQ(eval.verdict, Verdict::kAgree);
  EXPECT_GT(eval.states, 0u);
}

TEST(EvaluateScenario, Section6FamilyAgreesUnreachable) {
  Scenario s;
  s.kind = ScenarioKind::kFamily;
  s.family = core::generalized_spec(1);
  const Evaluation eval = evaluate_scenario(s, {});
  EXPECT_EQ(eval.classification.rule, "section6");
  EXPECT_EQ(eval.outcome, SearchOutcome::kNoDeadlock);
  EXPECT_EQ(eval.verdict, Verdict::kAgree);
}

TEST(EvaluateScenario, OutOfScopeSkipsWithoutSearching) {
  Scenario s;
  s.kind = ScenarioKind::kFamily;
  s.family.messages = {{2, 3, true}, {2, 3, true}};  // equal-access pair
  const Evaluation eval = evaluate_scenario(s, {});
  EXPECT_EQ(eval.verdict, Verdict::kSkip);
  EXPECT_EQ(eval.skip_reason, "theorem4-equal-access");
  EXPECT_EQ(eval.outcome, SearchOutcome::kNotRun);
  EXPECT_EQ(eval.states, 0u);  // the whole point: no search spent
}

TEST(EvaluateScenario, TinySearchBudgetSkipsAsSearchLimit) {
  Scenario s;
  s.kind = ScenarioKind::kFamily;
  s.family = core::generalized_spec(2);  // needs a large exhaustive probe
  EvalOptions options;
  options.limits.max_states = 50;
  const Evaluation eval = evaluate_scenario(s, options);
  EXPECT_EQ(eval.outcome, SearchOutcome::kInconclusive);
  EXPECT_EQ(eval.verdict, Verdict::kSkip);
  EXPECT_EQ(eval.skip_reason, "search-limit");
}

TEST(EvaluateScenario, AcyclicCorpusAgreesDeadlockFree) {
  Scenario s;
  s.kind = ScenarioKind::kRandomAlgorithm;
  s.seed = 21;
  s.topology = TopologyKind::kMesh;
  s.dims = {5};
  s.flavor = RoutingFlavor::kRandomMinimal;
  const Evaluation eval = evaluate_scenario(s, {});
  EXPECT_EQ(eval.classification.rule, "dally-seitz");
  EXPECT_EQ(eval.outcome, SearchOutcome::kNoDeadlock);
  EXPECT_EQ(eval.verdict, Verdict::kAgree);
}

TEST(EvaluateScenario, CyclicCorpusAgreesReachable) {
  Scenario s;
  s.kind = ScenarioKind::kRandomAlgorithm;
  s.seed = 33;
  s.topology = TopologyKind::kUniRing;
  s.nodes = 5;
  s.flavor = RoutingFlavor::kRandomTree;
  const Evaluation eval = evaluate_scenario(s, {});
  EXPECT_EQ(eval.classification.rule, "corollary1");
  EXPECT_EQ(eval.outcome, SearchOutcome::kDeadlock);
  EXPECT_EQ(eval.verdict, Verdict::kAgree);
}

TEST(RunCampaign, SmallCampaignHasNoDisagreements) {
  const CampaignResult result = run_campaign(small_config(1));
  EXPECT_EQ(result.disagree, 0u);
  EXPECT_EQ(result.records.size(), 30u);
  EXPECT_EQ(result.agree + result.disagree + result.skip, 30u);
  EXPECT_GT(result.agree, 15u);  // most of the stream is in scope

  // Records come back in index order with populated scenario JSON.
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    EXPECT_EQ(result.records[i].index, i);
    EXPECT_FALSE(result.records[i].scenario_json.empty());
  }
}

TEST(RunCampaign, JsonlIsIdenticalAcrossShardCounts) {
  const std::string one = jsonl_of(run_campaign(small_config(1)));
  const std::string three = jsonl_of(run_campaign(small_config(3)));
  EXPECT_EQ(one, three);

  // And across repeated runs (byte-stable replay).
  EXPECT_EQ(jsonl_of(run_campaign(small_config(2))), one);
}

TEST(RunCampaign, RuleCountsMatchRecords) {
  const CampaignResult result = run_campaign(small_config(2));
  std::uint64_t total = 0;
  for (const auto& [rule, n] : result.rule_counts) total += n;
  EXPECT_EQ(total, result.records.size());
  std::uint64_t skips = 0;
  for (const auto& [reason, n] : result.skip_counts) skips += n;
  EXPECT_EQ(skips, result.skip);
}

TEST(RunCampaign, ReportCarriesVerdictCounters) {
  CampaignConfig config = small_config(1);
  config.collect_profile = true;
  const CampaignResult result = run_campaign(config);
  const obs::RunReport report = result.report(config);
  EXPECT_EQ(report.name, "campaign");
  EXPECT_EQ(report.values.at("count"), 30.0);
  EXPECT_EQ(report.values.at("agree"), static_cast<double>(result.agree));
  EXPECT_EQ(report.values.at("disagree"), 0.0);
  EXPECT_EQ(report.labels.at("outcome"), "clean");
  EXPECT_GT(result.profile.memo_misses, 0u);  // profile actually collected
}

TEST(ScenarioRecordJson, ContainsNoTimingFields) {
  const CampaignResult result = run_campaign(small_config(1));
  for (const ScenarioRecord& record : result.records) {
    const std::string line = record.to_json();
    EXPECT_EQ(line.find("elapsed"), std::string::npos);
    EXPECT_EQ(line.find("shard"), std::string::npos);
    EXPECT_NE(line.find("\"verdict\""), std::string::npos);
  }
}

TEST(RunCampaign, WarmCacheRerunIsAllDiskHitsAndByteIdentical) {
  const std::string cache = test::temp_dir("wormsim_warm.truthstore");

  CampaignConfig config = small_config(1);
  config.cache_file = cache;
  const CampaignResult cold = run_campaign(config);
  EXPECT_EQ(cold.truth_disk_hits, 0u);
  EXPECT_GT(cold.truth_misses, 0u);
  EXPECT_TRUE(cold.cache_saved);
  EXPECT_EQ(cold.truth_stored, cold.truth_misses);  // one record per search

  const CampaignResult warm = run_campaign(config);
  EXPECT_EQ(warm.truth_loaded, cold.truth_stored);
  EXPECT_EQ(warm.truth_misses, 0u);  // zero searches on a warm rerun
  EXPECT_EQ(warm.truth_memo_hits, 0u);
  EXPECT_EQ(warm.truth_disk_hits, cold.truth_disk_hits + cold.truth_memo_hits +
                                      cold.truth_misses);
  EXPECT_EQ(jsonl_of(warm), jsonl_of(cold));
  EXPECT_EQ(warm.states_total, cold.states_total);

  const obs::RunReport report = warm.report(config);
  EXPECT_EQ(report.values.at("truth_cache.disk_hit_rate"), 1.0);
  EXPECT_EQ(report.labels.at("truth_cache"), "warm");
}

TEST(RunCampaign, CacheFileOffLeavesReportCold) {
  CampaignConfig config = small_config(1);
  const CampaignResult result = run_campaign(config);
  EXPECT_EQ(result.truth_loaded, 0u);
  EXPECT_FALSE(result.cache_saved);
  EXPECT_EQ(result.report(config).labels.at("truth_cache"), "off");
  // The in-memory memo still runs without a cache file.
  EXPECT_GT(result.truth_memo_hits + result.truth_misses, 0u);
}

TEST(SingleFlight, EachTruthKeyIsSearchedOnceAtFourShards) {
  // A Section-6-only stream draws just two truth keys (k = 1 and k = 2),
  // so four shards starting together would search each key several times
  // without single flight. A small state budget keeps every probe short.
  const auto run = [](unsigned shards) {
    CampaignConfig config = small_config(shards);
    config.count = 16;
    config.knobs.family_fraction = 1;
    config.knobs.section6_fraction = 1;
    config.eval.limits.max_states = 4'000;
    config.cache_file = test::temp_dir("wormsim_single_flight_" +
                                       std::to_string(shards) + ".truthstore");
    return run_campaign(config);
  };
  const CampaignResult one = run(1);
  const CampaignResult four = run(4);
  EXPECT_EQ(one.truth_misses, 2u);
  EXPECT_EQ(one.truth_parked, 0u);
  EXPECT_EQ(four.truth_misses, one.truth_misses);
  EXPECT_EQ(four.truth_stored, four.truth_misses);
  EXPECT_EQ(four.truth_memo_hits, one.truth_memo_hits);
  EXPECT_LE(four.truth_parked, four.truth_memo_hits);
  EXPECT_EQ(jsonl_of(four), jsonl_of(one));
}

TEST(CampaignCheckpoint, CacheFileGrowsWhileTheRunIsLiveAndResumes) {
  // Random algorithms only: a steady stream of short searches on two
  // shards, each of which inserts. The count comes from a short calibration
  // run of the same stream, so that on any host the run lasts about three
  // kCheckpointSeconds intervals and appends land before the final save.
  CampaignConfig config;
  config.seed = 1;
  config.count = 4'000;
  config.shards = 2;
  config.knobs.family_fraction = 0;
  config.fixture_dir.clear();
  const CampaignResult calibration = run_campaign(config);
  const double per_second =
      static_cast<double>(config.count) /
      std::max(calibration.elapsed_seconds, 1e-3);
  config.count = std::max<std::uint64_t>(
      config.count,
      static_cast<std::uint64_t>(per_second * 3 * kCheckpointSeconds));
  config.cache_file = test::temp_dir("wormsim_checkpoint.truthstore");

  std::atomic<bool> finished{false};
  CampaignResult cold;
  std::thread run([&] {
    cold = run_campaign(config);
    finished.store(true);
  });
  // How often the file's record count changed while the run was live, and
  // the file as the first change left it. Only the last write is the final
  // save, so every change seen before another one was written by a
  // checkpoint.
  std::size_t changes = 0;
  std::string first_append;
  std::ptrdiff_t last_lines = 0;
  while (!finished.load()) {
    std::string text = test::slurp(config.cache_file);
    const auto lines = std::count(text.begin(), text.end(), '\n');
    if (lines > 1 && lines != last_lines) {
      if (changes++ == 0) first_append = std::move(text);
      last_lines = lines;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  run.join();
  ASSERT_GE(changes, 2u) << "no append was seen before the final save";
  ASSERT_TRUE(cold.cache_saved);

  // A run killed where the first append left the file resumes warm from
  // it, searches only what the append lacked, and ends in the same bytes.
  // The cold run's records are released first: at hundreds of thousands
  // of scenarios, two results at once would double the test's memory.
  const std::string cold_cache = test::slurp(config.cache_file);
  const std::string cold_jsonl = jsonl_of(cold);
  const std::uint64_t cold_misses = cold.truth_misses;
  cold = CampaignResult{};
  config.cache_file = test::temp_dir("wormsim_checkpoint_resumed.truthstore");
  { std::ofstream(config.cache_file, std::ios::binary) << first_append; }
  const CampaignResult resumed = run_campaign(config);
  EXPECT_GT(resumed.truth_loaded, 0u);
  EXPECT_EQ(resumed.truth_loaded + resumed.truth_misses, cold_misses);
  EXPECT_EQ(jsonl_of(resumed), cold_jsonl);
  EXPECT_EQ(test::slurp(config.cache_file), cold_cache);
}

TEST(FixtureExtraction, FindsEmbeddedScenarios) {
  const std::string fixture =
      "{\n  \"rule\": \"x\",\n"
      "  \"scenario\": {\"index\":4,\"seed\":9,\"kind\":\"family\","
      "\"name\":\"a}b\",\"hub\":false,\"messages\":[[2,2,1],[2,2,1]]},\n"
      "  \"shrunk\": {\"index\":4,\"seed\":9,\"kind\":\"random\","
      "\"topology\":\"uniring\",\"dims\":[],\"nodes\":3,\"lanes\":1,"
      "\"chords\":0,\"flavor\":\"tree\"}\n}\n";
  const auto scenario = scenario_from_fixture(fixture, "scenario");
  ASSERT_TRUE(scenario.has_value());
  EXPECT_EQ(scenario->kind, ScenarioKind::kFamily);
  EXPECT_EQ(scenario->family.name, "a}b");  // a brace inside a string
  const auto shrunk = scenario_from_fixture(fixture, "shrunk");
  ASSERT_TRUE(shrunk.has_value());
  EXPECT_EQ(shrunk->kind, ScenarioKind::kRandomAlgorithm);
  EXPECT_FALSE(scenario_from_fixture(fixture, "absent").has_value());
}

}  // namespace
}  // namespace wormsim::campaign
