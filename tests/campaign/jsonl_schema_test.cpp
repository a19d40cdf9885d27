// docs/campaign.md documents the JSONL record schema field-by-field. This
// test parses the two schema tables out of the manual and checks them
// against records emitted by a real campaign run, in both directions:
// every documented always-field must appear, and every emitted field must
// be documented. If the emitter and the manual drift apart, this fails.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "obs/json.hpp"
#include "test_support.hpp"

namespace wormsim::campaign {
namespace {

using test::DocField;
using test::find_field;
using test::parse_table;
using test::slurp;

std::string manual_path() {
  return std::string(WORMSIM_REPO_ROOT) + "/docs/campaign.md";
}

TEST(JsonlSchemaDoc, ManualTablesParse) {
  const std::string doc = slurp(manual_path());
  ASSERT_FALSE(doc.empty()) << "cannot read " << manual_path();

  const auto record = parse_table(doc, "## JSONL record schema");
  const auto scenario = parse_table(doc, "### The `scenario` object");
  EXPECT_EQ(record.size(), 12u);
  EXPECT_EQ(scenario.size(), 12u);
  for (const auto& fields : {record, scenario})
    for (const DocField& f : fields)
      EXPECT_FALSE(f.presence.empty()) << "no presence cell for " << f.name;
}

TEST(JsonlSchemaDoc, EmittedRecordsMatchTheManualFieldForField) {
  const std::string doc = slurp(manual_path());
  ASSERT_FALSE(doc.empty());
  const auto record_fields = parse_table(doc, "## JSONL record schema");
  const auto scenario_fields = parse_table(doc, "### The `scenario` object");
  ASSERT_FALSE(record_fields.empty());
  ASSERT_FALSE(scenario_fields.empty());

  CampaignConfig config;
  config.seed = 2026;
  config.count = 40;  // enough to cover both kinds and a skip
  config.fixture_dir.clear();
  const CampaignResult result = run_campaign(config);

  bool saw_family = false, saw_random = false, saw_skip = false;
  for (const ScenarioRecord& record : result.records) {
    const std::string line = record.to_json();
    const auto parsed = obs::json::parse(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    ASSERT_TRUE(parsed->is_object());

    // Record level: emitted => documented, documented "always" => emitted.
    for (const auto& [key, value] : parsed->as_object())
      EXPECT_NE(find_field(record_fields, key), nullptr)
          << "field '" << key << "' is emitted but not in docs/campaign.md";
    for (const DocField& f : record_fields) {
      if (f.presence == "always")
        EXPECT_NE(parsed->find(f.name), nullptr)
            << "documented always-field '" << f.name << "' missing: " << line;
    }
    const auto* skip = parsed->find("skip");
    const auto* verdict = parsed->find("verdict");
    ASSERT_NE(verdict, nullptr);
    EXPECT_EQ(skip != nullptr, verdict->as_string() == "skip") << line;
    if (skip != nullptr) saw_skip = true;

    // Scenario object: common fields always, kind-specific fields exactly
    // when the kind matches (family records carry no random fields and
    // vice versa).
    const auto* scenario = parsed->find("scenario");
    ASSERT_NE(scenario, nullptr);
    ASSERT_TRUE(scenario->is_object());
    const std::string kind = scenario->find("kind")->as_string();
    (kind == "family" ? saw_family : saw_random) = true;
    for (const auto& [key, value] : scenario->as_object())
      EXPECT_NE(find_field(scenario_fields, key), nullptr)
          << "scenario field '" << key << "' not in docs/campaign.md";
    for (const DocField& f : scenario_fields) {
      const bool expected = f.presence == "always" || f.presence == kind;
      EXPECT_EQ(scenario->find(f.name) != nullptr, expected)
          << "scenario field '" << f.name << "' (documented presence '"
          << f.presence << "') vs kind '" << kind << "': " << line;
    }
  }
  // The sample actually exercised every presence class in the tables.
  EXPECT_TRUE(saw_family);
  EXPECT_TRUE(saw_random);
  EXPECT_TRUE(saw_skip);
}

TEST(JsonlSchemaDoc, DocumentedEnumsMatchEmitters) {
  const std::string doc = slurp(manual_path());
  // Every value the emitters can produce for the closed string fields must
  // be named somewhere in the manual.
  for (const SearchOutcome o :
       {SearchOutcome::kNotRun, SearchOutcome::kDeadlock,
        SearchOutcome::kNoDeadlock, SearchOutcome::kInconclusive})
    EXPECT_NE(doc.find(to_string(o)), std::string::npos) << to_string(o);
  for (const char* prediction : {"deadlock-reachable", "unreachable-cycle",
                                 "deadlock-free", "out-of-scope"})
    EXPECT_NE(doc.find(prediction), std::string::npos) << prediction;
  for (const char* verdict : {"agree", "disagree", "skip"})
    EXPECT_NE(doc.find("`" + std::string(verdict) + "`"), std::string::npos)
        << verdict;
}

}  // namespace
}  // namespace wormsim::campaign
