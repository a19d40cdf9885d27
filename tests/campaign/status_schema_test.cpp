// docs/observability.md documents the status-file schema field-by-field;
// this test pins the document and the emitter against each other, in both
// directions (every emitted key documented, every documented key emitted),
// in the style of jsonl_schema_test.cpp. It also pins the heartbeat's
// behavioural contract on a real campaign: the final snapshot reports
// running=false with done == count, the per-worker rows sum to the
// campaign totals, racing readers never see a torn file, and — the
// load-bearing property — the JSONL bytes are identical with and without a
// status file attached.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/runner.hpp"
#include "obs/json.hpp"
#include "obs/status.hpp"
#include "test_support.hpp"

namespace wormsim::campaign {
namespace {

namespace fs = std::filesystem;
using test::DocField;
using test::find_field;
using test::parse_table;
using test::slurp;

std::string manual_path() {
  return std::string(WORMSIM_REPO_ROOT) + "/docs/observability.md";
}

CampaignConfig small_campaign(const std::string& status_file) {
  CampaignConfig config;
  config.seed = 2026;
  config.count = 30;
  config.shards = 2;
  config.fixture_dir.clear();
  config.eval.limits.max_states = 400'000;
  config.status_file = status_file;
  config.status_interval_seconds = 0.01;
  return config;
}

/// Both directions against one documented table: every emitted key is
/// documented, every documented field is present.
void expect_matches_table(const obs::json::Value& object,
                          const std::vector<DocField>& fields,
                          const std::string& where) {
  for (const auto& [key, value] : object.as_object())
    EXPECT_NE(find_field(fields, key), nullptr)
        << where << " field '" << key
        << "' is emitted but not in docs/observability.md";
  for (const DocField& f : fields)
    EXPECT_NE(object.find(f.name), nullptr)
        << where << " documented field '" << f.name << "' missing";
}

TEST(StatusSchemaDoc, ManualTablesParse) {
  const std::string doc = slurp(manual_path());
  ASSERT_FALSE(doc.empty()) << "cannot read " << manual_path();
  EXPECT_EQ(parse_table(doc, "## Status file schema").size(), 11u);
  EXPECT_EQ(parse_table(doc, "### The `progress` object").size(), 8u);
  EXPECT_EQ(parse_table(doc, "### The `truth_cache` object").size(), 4u);
  EXPECT_EQ(parse_table(doc, "### The `sim` object").size(), 11u);
  EXPECT_EQ(parse_table(doc, "### The `search` object").size(), 28u);
  EXPECT_EQ(parse_table(doc, "### Worker entries").size(), 21u);
  for (const char* heading :
       {"## Status file schema", "### The `progress` object",
        "### The `truth_cache` object", "### The `sim` object",
        "### The `search` object", "### Worker entries"})
    for (const DocField& f : parse_table(doc, heading))
      EXPECT_EQ(f.presence, "always")
          << f.name << ": status fields never come and go";
}

TEST(StatusSchemaDoc, KindRowListsEveryProducerKind) {
  // Direction 1: every kind a producer emits is documented in the schema
  // table's `kind` row.
  const std::string doc = slurp(manual_path());
  ASSERT_FALSE(doc.empty());
  const auto at = doc.find("| `kind` |");
  ASSERT_NE(at, std::string::npos);
  const std::string line = doc.substr(at, doc.find('\n', at) - at);
  for (const char* kind : {"campaign", "search", "saturation", "synth"})
    EXPECT_NE(line.find("`" + std::string(kind) + "`"), std::string::npos)
        << "kind '" << kind << "' missing from the schema table";
}

TEST(StatusSchemaDoc, SynthKindRoundTripsThroughTheEmitter) {
  // Direction 2: a "synth" snapshot (wormsim_synth's heartbeat) serializes
  // and parses back with the kind intact and the full schema around it.
  obs::StatusSnapshot snap;
  snap.kind = "synth";
  snap.count = 13;
  snap.done = 4;
  snap.agree = 4;
  const auto parsed = obs::json::parse(snap.to_json());
  ASSERT_TRUE(parsed.has_value() && parsed->is_object());
  EXPECT_EQ(parsed->find("schema")->as_string(), obs::kStatusSchema);
  EXPECT_EQ(parsed->find("kind")->as_string(), "synth");
  const obs::json::Value& progress = *parsed->find("progress");
  EXPECT_EQ(progress.find("count")->as_u64(), 13u);
  EXPECT_EQ(progress.find("agree")->as_u64(), 4u);
}

TEST(StatusSchemaDoc, EmittedSnapshotMatchesTheManualFieldForField) {
  const std::string doc = slurp(manual_path());
  ASSERT_FALSE(doc.empty());
  const auto top = parse_table(doc, "## Status file schema");
  const auto progress = parse_table(doc, "### The `progress` object");
  const auto truth = parse_table(doc, "### The `truth_cache` object");
  const auto sim = parse_table(doc, "### The `sim` object");
  const auto search = parse_table(doc, "### The `search` object");
  const auto worker = parse_table(doc, "### Worker entries");
  ASSERT_FALSE(top.empty());

  const std::string status_file =
      test::temp_dir("wormsim_schema_status.json");
  const CampaignResult result = run_campaign(small_campaign(status_file));
  (void)result;

  const auto parsed = obs::json::parse(slurp(status_file));
  ASSERT_TRUE(parsed.has_value()) << "final snapshot is not valid JSON";
  ASSERT_TRUE(parsed->is_object());
  EXPECT_EQ(parsed->find("schema")->as_string(), obs::kStatusSchema);

  expect_matches_table(*parsed, top, "top-level");
  expect_matches_table(*parsed->find("progress"), progress, "progress");
  expect_matches_table(*parsed->find("truth_cache"), truth, "truth_cache");
  expect_matches_table(*parsed->find("sim"), sim, "sim");
  expect_matches_table(*parsed->find("search"), search, "search");
  const auto& workers = parsed->find("workers")->as_array();
  ASSERT_EQ(workers.size(), 2u);  // one row per shard
  for (const auto& row : workers)
    expect_matches_table(row, worker, "worker");
  fs::remove(status_file);
}

TEST(StatusSchemaDoc, FinalSnapshotReportsCompletionAndWorkerTotals) {
  const std::string status_file = test::temp_dir("wormsim_final_status.json");
  const CampaignConfig config = small_campaign(status_file);
  const CampaignResult result = run_campaign(config);

  const auto parsed = obs::json::parse(slurp(status_file));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->find("running")->as_bool());
  const obs::json::Value& progress = *parsed->find("progress");
  EXPECT_EQ(progress.find("count")->as_u64(), config.count);
  EXPECT_EQ(progress.find("done")->as_u64(), config.count);
  EXPECT_EQ(progress.find("agree")->as_u64(), result.agree);
  EXPECT_EQ(progress.find("disagree")->as_u64(), result.disagree);
  EXPECT_EQ(progress.find("skip")->as_u64(), result.skip);
  EXPECT_EQ(progress.find("states_total")->as_u64(), result.states_total);
  EXPECT_DOUBLE_EQ(progress.find("eta_seconds")->as_number(), 0);

  // Worker rows partition the campaign totals, and every worker is idle.
  std::uint64_t done = 0, agree = 0, states = 0;
  for (const auto& row : parsed->find("workers")->as_array()) {
    EXPECT_EQ(row.find("in_flight")->as_u64(), config.count);
    done += row.find("done")->as_u64();
    agree += row.find("agree")->as_u64();
    states += row.find("states")->as_u64();
  }
  EXPECT_EQ(done, config.count);
  EXPECT_EQ(agree, result.agree);
  EXPECT_EQ(states, result.states_total);

  // The searches the workers ran all finished.
  const obs::json::Value& search = *parsed->find("search");
  EXPECT_FALSE(search.find("active")->as_bool());
  EXPECT_EQ(search.find("searches_started")->as_u64(),
            search.find("searches_finished")->as_u64());
  EXPECT_GT(search.find("searches_started")->as_u64(), 0u);
  fs::remove(status_file);
}

TEST(StatusSchemaDoc, StatusFileLeavesJsonlByteIdentical) {
  const std::string status_file =
      test::temp_dir("wormsim_identity_status.json");
  CampaignConfig with_status = small_campaign(status_file);
  CampaignConfig without = with_status;
  without.status_file.clear();

  const CampaignResult observed = run_campaign(with_status);
  const CampaignResult plain = run_campaign(without);

  std::ostringstream observed_jsonl, plain_jsonl;
  observed.write_jsonl(observed_jsonl);
  plain.write_jsonl(plain_jsonl);
  EXPECT_EQ(observed_jsonl.str(), plain_jsonl.str())
      << "attaching a status file must not perturb the records";
  EXPECT_EQ(observed.agree, plain.agree);
  EXPECT_EQ(observed.states_total, plain.states_total);
  fs::remove(status_file);
}

TEST(StatusSchemaDoc, RacingReadersNeverSeeATornSnapshot) {
  const std::string status_file = test::temp_dir("wormsim_racing_status.json");
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> torn{0};
  std::thread reader([&] {
    while (!stop.load()) {
      const std::string text = slurp(status_file);
      if (text.empty()) continue;  // not yet published
      ++reads;
      const auto parsed = obs::json::parse(text);
      if (!parsed || !parsed->is_object() ||
          parsed->find("schema") == nullptr ||
          parsed->find("schema")->as_string() != obs::kStatusSchema ||
          parsed->find("workers") == nullptr)
        ++torn;
    }
  });
  const CampaignResult result = run_campaign(small_campaign(status_file));
  stop.store(true);
  reader.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(result.records.size(), 30u);
  fs::remove(status_file);
}

}  // namespace
}  // namespace wormsim::campaign
