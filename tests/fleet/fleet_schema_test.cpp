// docs/fleet.md documents every fleet protocol message field-by-field;
// this test pins the document and the emitters against each other in both
// directions (every emitted key documented, every documented key emitted),
// in the style of tests/campaign/status_schema_test.cpp. The second half
// runs a miniature fleet and validates the files it actually left on disk
// against the same tables — so the doc matches not just the serializers
// but the protocol as deployed.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/runner.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/protocol.hpp"
#include "util/file.hpp"
#include "fleet/worker.hpp"
#include "obs/json.hpp"
#include "test_support.hpp"

namespace wormsim::fleet {
namespace {

namespace fs = std::filesystem;
using test::DocField;
using test::find_field;
using test::parse_table;
using test::slurp;

std::string manual_path() {
  return std::string(WORMSIM_REPO_ROOT) + "/docs/fleet.md";
}

constexpr const char* kManifestHeading =
    "### The manifest (`manifest.json`)";
constexpr const char* kQueueHeading =
    "### Queue entries (`queue/batch-NNNNNN.json`)";
constexpr const char* kClaimHeading =
    "### Claims (`claims/batch-NNNNNN.json`)";
constexpr const char* kResultHeading =
    "### Result files (`results/batch-NNNNNN.jsonl`)";
constexpr const char* kQuarantineHeading =
    "### Quarantine records (`quarantine/batch-NNNNNN.json`)";
constexpr const char* kShutdownHeading =
    "### The shutdown sentinel (`shutdown.json`)";

/// Both directions against one documented table: every emitted key is
/// documented, every documented field is present in the emitted object.
void expect_matches_table(const std::string& json_text,
                          const std::vector<DocField>& fields,
                          const std::string& where) {
  const auto parsed = obs::json::parse(json_text);
  ASSERT_TRUE(parsed.has_value() && parsed->is_object())
      << where << " does not parse as a JSON object: " << json_text;
  for (const auto& [key, value] : parsed->as_object())
    EXPECT_NE(find_field(fields, key), nullptr)
        << where << " field '" << key
        << "' is emitted but not documented in docs/fleet.md";
  for (const DocField& f : fields)
    EXPECT_NE(parsed->find(f.name), nullptr)
        << where << " documented field '" << f.name << "' is not emitted";
}

TEST(FleetSchemaDoc, ManualTablesParse) {
  const std::string doc = slurp(manual_path());
  ASSERT_FALSE(doc.empty()) << "cannot read " << manual_path();
  EXPECT_EQ(parse_table(doc, kManifestHeading).size(), 13u);
  EXPECT_EQ(parse_table(doc, kQueueHeading).size(), 5u);
  EXPECT_EQ(parse_table(doc, kClaimHeading).size(), 8u);
  EXPECT_EQ(parse_table(doc, kResultHeading).size(), 7u);
  EXPECT_EQ(parse_table(doc, kQuarantineHeading).size(), 6u);
  EXPECT_EQ(parse_table(doc, kShutdownHeading).size(), 2u);
  for (const char* heading :
       {kManifestHeading, kQueueHeading, kClaimHeading, kResultHeading,
        kQuarantineHeading, kShutdownHeading})
    for (const DocField& f : parse_table(doc, heading))
      EXPECT_EQ(f.presence, "always")
          << f.name << ": protocol fields never come and go";
}

TEST(FleetSchemaDoc, EverySerializerMatchesItsTableBothWays) {
  const std::string doc = slurp(manual_path());
  ASSERT_FALSE(doc.empty());

  FleetManifest manifest;
  manifest.fixture_dir = "fixtures";
  expect_matches_table(manifest.to_json(), parse_table(doc, kManifestHeading),
                       "manifest");
  expect_matches_table(BatchTask{1, 64, 128, 2}.to_json(),
                       parse_table(doc, kQueueHeading), "queue entry");
  BatchLease lease;
  lease.worker = "w0";
  expect_matches_table(lease.to_json(), parse_table(doc, kClaimHeading),
                       "claim");
  ResultHeader header;
  header.worker = "w0";
  expect_matches_table(header.to_json(), parse_table(doc, kResultHeading),
                       "result header");
  QuarantineRecord q;
  q.reason = "testing";
  expect_matches_table(q.to_json(), parse_table(doc, kQuarantineHeading),
                       "quarantine record");
  expect_matches_table(ShutdownSentinel{true}.to_json(),
                       parse_table(doc, kShutdownHeading),
                       "shutdown sentinel");
}

TEST(FleetSchemaDoc, DeployedRunDirectoryMatchesTheManual) {
  // A real (miniature) fleet run, then the doc tables are checked against
  // the files it actually produced — and the merge against the documented
  // determinism contract.
  const std::string dir = test::temp_dir("wormsim_fleet_schema_run");

  FleetConfig config;
  config.run_dir = dir;
  config.campaign.seed = 2026;
  config.campaign.count = 8;
  config.campaign.fixture_dir.clear();
  config.campaign.eval.limits.max_states = 400'000;
  config.batch_size = 4;
  config.poll_interval_seconds = 0.01;

  WorkerResult worker_result;
  std::thread worker([&] {
    WorkerConfig w;
    w.run_dir = dir;
    w.name = "w0";
    w.poll_interval_seconds = 0.01;
    worker_result = run_worker(w);
  });
  const FleetResult result = run_coordinator(config);
  worker.join();
  ASSERT_TRUE(result.complete);

  const std::string doc = slurp(manual_path());
  ASSERT_FALSE(doc.empty());
  const RunPaths paths(dir);
  expect_matches_table(*util::read_file(paths.manifest()),
                       parse_table(doc, kManifestHeading),
                       "deployed manifest");
  expect_matches_table(*util::read_file(paths.shutdown()),
                       parse_table(doc, kShutdownHeading),
                       "deployed sentinel");
  // The result file: documented header line, then exactly the documented
  // record count of campaign JSONL lines.
  const auto result_text = util::read_file(paths.batch_result(0));
  ASSERT_TRUE(result_text.has_value());
  std::istringstream lines(*result_text);
  std::string header_line;
  ASSERT_TRUE(std::getline(lines, header_line));
  expect_matches_table(header_line, parse_table(doc, kResultHeading),
                       "deployed result header");
  const auto header = ResultHeader::from_json(header_line);
  ASSERT_TRUE(header.has_value());
  std::size_t body_lines = 0;
  for (std::string line; std::getline(lines, line);) ++body_lines;
  EXPECT_EQ(body_lines, header->records);

  // The documented determinism contract, end to end.
  campaign::CampaignConfig single = config.campaign;
  const campaign::CampaignResult reference = campaign::run_campaign(single);
  std::ostringstream expected;
  reference.write_jsonl(expected);
  EXPECT_EQ(*util::read_file(paths.merged()), expected.str())
      << "merged.jsonl must be byte-identical to the single-process run";
  fs::remove_all(dir);
}

}  // namespace
}  // namespace wormsim::fleet
