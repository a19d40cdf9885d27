// The fleet protocol layer: message round-trips, strict rejection of
// foreign/torn files, atomic publication, and run-directory naming. The
// higher layers (coordinator state machine, worker loop) are exercised in
// fleet_runtime_test.cpp; the docs tables are pinned by
// fleet_schema_test.cpp.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "campaign/runner.hpp"
#include "fleet/protocol.hpp"
#include "test_support.hpp"
#include "util/file.hpp"

namespace wormsim::fleet {
namespace {

namespace fs = std::filesystem;

/// `text` with the value after `"key":` replaced by `value`.
std::string with_field(std::string text, const std::string& key,
                       const std::string& value) {
  const std::size_t start = text.find("\"" + key + "\":") + key.size() + 3;
  return text.replace(start, text.find_first_of(",}", start) - start, value);
}

TEST(FleetProtocol, ManifestRoundTripsEveryField) {
  FleetManifest m;
  m.seed = 42;
  m.count = 10'000;
  m.batch_size = 128;
  m.max_attempts = 5;
  m.lease_seconds = 7.5;
  m.cycle_bias = "force";
  m.synth_fraction = 0.25;
  m.synth_max_pairs = 6;
  m.max_states = 1'000'000;
  m.reduction = "safe";
  m.fixture_dir = "fixtures";
  m.truth_fingerprint = 0xdeadbeefcafef00dULL;

  const auto back = FleetManifest::from_json(m.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seed, m.seed);
  EXPECT_EQ(back->count, m.count);
  EXPECT_EQ(back->batch_size, m.batch_size);
  EXPECT_EQ(back->max_attempts, m.max_attempts);
  EXPECT_DOUBLE_EQ(back->lease_seconds, m.lease_seconds);
  EXPECT_EQ(back->cycle_bias, m.cycle_bias);
  EXPECT_DOUBLE_EQ(back->synth_fraction, m.synth_fraction);
  EXPECT_EQ(back->synth_max_pairs, m.synth_max_pairs);
  EXPECT_EQ(back->max_states, m.max_states);
  EXPECT_EQ(back->reduction, m.reduction);
  EXPECT_EQ(back->fixture_dir, m.fixture_dir);
  EXPECT_EQ(back->truth_fingerprint, m.truth_fingerprint);
}

TEST(FleetProtocol, MessagesRejectForeignAndTornText) {
  // Wrong schema: a manifest is not a batch, a lease is not a result.
  const FleetManifest manifest;
  EXPECT_FALSE(BatchTask::from_json(manifest.to_json()).has_value());
  const BatchTask task{3, 192, 256, 1};
  EXPECT_FALSE(BatchLease::from_json(task.to_json()).has_value());
  EXPECT_FALSE(FleetManifest::from_json(task.to_json()).has_value());

  // Torn / garbage text.
  for (const char* text : {"", "{", "{\"schema\":\"wormsim-fleet-batch-v1\"",
                           "not json at all", "{\"schema\":17}"}) {
    EXPECT_FALSE(BatchTask::from_json(text).has_value()) << text;
    EXPECT_FALSE(ShutdownSentinel::from_json(text).has_value()) << text;
  }

  // Structural nonsense: inverted ranges, zero attempts, zero batch size.
  EXPECT_FALSE(BatchTask::from_json(BatchTask{0, 64, 32, 1}.to_json()));
  EXPECT_FALSE(BatchTask::from_json(BatchTask{0, 0, 64, 0}.to_json()));
  FleetManifest bad;
  bad.batch_size = 0;
  EXPECT_FALSE(FleetManifest::from_json(bad.to_json()).has_value());
  // The generator needs at least two demanded pairs; a manifest asking for
  // fewer would abort every worker on a precondition.
  FleetManifest one_pair;
  ASSERT_TRUE(FleetManifest::from_json(one_pair.to_json()).has_value());
  one_pair.synth_max_pairs = 1;
  EXPECT_FALSE(FleetManifest::from_json(one_pair.to_json()).has_value());

  // Integer fields must be exact non-negative integers. Cast from a
  // double, -3 would read as 2^64-3, 1e300 is undefined behaviour (0 on
  // x86) and 0.5 truncates to 0; a manifest count of -5 would make a
  // resuming coordinator wrap to zero batches and report the run complete.
  const std::string task_text = BatchTask{0, 0, 64, 1}.to_json();
  ASSERT_TRUE(BatchTask::from_json(task_text).has_value());
  for (const auto& [key, value] :
       {std::pair{"attempt", "-3"}, {"end", "1e300"}, {"batch", "0.5"}})
    EXPECT_FALSE(BatchTask::from_json(with_field(task_text, key, value)))
        << key << " = " << value;
  EXPECT_FALSE(FleetManifest::from_json(
      with_field(FleetManifest{}.to_json(), "count", "-5")));

  // A reduction mode this build does not run (the retired "on") would
  // silently search differently from what the fingerprint describes.
  FleetManifest unknown_mode;
  EXPECT_EQ(unknown_mode.reduction, "safe");  // the search's own default
  unknown_mode.reduction = "on";
  EXPECT_FALSE(FleetManifest::from_json(unknown_mode.to_json()).has_value());
}

TEST(FleetProtocol, ManifestRejectsKnobsTheGeneratorRefuses) {
  // A synthesized fraction outside [0, 1] would abort every worker on the
  // generator's precondition, and an unknown cycle bias would run as "any";
  // workers must exit 5 on such a manifest instead.
  FleetManifest m;
  for (const double fraction : {1.5, -0.25}) {
    m.synth_fraction = fraction;
    EXPECT_FALSE(FleetManifest::from_json(m.to_json()).has_value()) << fraction;
  }
  m.synth_fraction = 1;
  ASSERT_TRUE(FleetManifest::from_json(m.to_json()).has_value());
  m.cycle_bias = "sometimes";
  EXPECT_FALSE(FleetManifest::from_json(m.to_json()).has_value());
}

TEST(FleetProtocol, LeaseResultQuarantineShutdownRoundTrip) {
  BatchLease lease;
  lease.batch = 7;
  lease.first = 448;
  lease.end = 512;
  lease.attempt = 2;
  lease.worker = "w0";
  lease.pid = 1234;
  lease.renewals = 9;
  const auto lease_back = BatchLease::from_json(lease.to_json());
  ASSERT_TRUE(lease_back.has_value());
  EXPECT_EQ(lease_back->worker, "w0");
  EXPECT_EQ(lease_back->pid, 1234u);
  EXPECT_EQ(lease_back->renewals, 9u);
  EXPECT_EQ(lease_back->attempt, 2u);

  ResultHeader header;
  header.batch = 7;
  header.first = 448;
  header.end = 512;
  header.attempt = 2;
  header.worker = "w0";
  header.records = 64;
  // The header is a JSONL first line: exactly one line, no newline.
  EXPECT_EQ(header.to_json().find('\n'), std::string::npos);
  const auto header_back = ResultHeader::from_json(header.to_json());
  ASSERT_TRUE(header_back.has_value());
  EXPECT_EQ(header_back->records, 64u);

  QuarantineRecord q;
  q.batch = 7;
  q.first = 448;
  q.end = 512;
  q.attempts = 3;
  q.reason = "lease expired (worker lost?) (attempt budget exhausted)";
  const auto q_back = QuarantineRecord::from_json(q.to_json());
  ASSERT_TRUE(q_back.has_value());
  EXPECT_EQ(q_back->attempts, 3u);
  EXPECT_EQ(q_back->reason, q.reason);

  for (const bool complete : {true, false}) {
    const auto s = ShutdownSentinel::from_json(
        ShutdownSentinel{complete}.to_json());
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->complete, complete);
  }
}

TEST(FleetProtocol, RunPathsNameAndParseBatchStems) {
  EXPECT_EQ(RunPaths::batch_stem(0), "batch-000000");
  EXPECT_EQ(RunPaths::batch_stem(123), "batch-000123");
  EXPECT_EQ(RunPaths::batch_stem(1'234'567), "batch-1234567");

  EXPECT_EQ(RunPaths::parse_batch_stem("batch-000123.json"), 123u);
  EXPECT_EQ(RunPaths::parse_batch_stem("batch-000000.jsonl"), 0u);
  EXPECT_EQ(RunPaths::parse_batch_stem("batch-000042.cache"), 42u);
  EXPECT_FALSE(RunPaths::parse_batch_stem("manifest.json").has_value());
  EXPECT_FALSE(RunPaths::parse_batch_stem("batch-.json").has_value());
  EXPECT_FALSE(RunPaths::parse_batch_stem("batch-12x.json").has_value());
  // A temp file mid-publication still names its batch (everything after
  // the first '.' is extension); claiming it just fails on the rename.
  EXPECT_EQ(RunPaths::parse_batch_stem("batch-000001.json.tmp.55.0"), 1u);

  const RunPaths paths("/run");
  EXPECT_EQ(paths.batch_task(5), "/run/queue/batch-000005.json");
  EXPECT_EQ(paths.batch_claim(5), "/run/claims/batch-000005.json");
  EXPECT_EQ(paths.batch_result(5), "/run/results/batch-000005.jsonl");
  EXPECT_EQ(paths.batch_cache(5), "/run/results/batch-000005.cache");
  EXPECT_EQ(paths.batch_quarantine(5), "/run/quarantine/batch-000005.json");
  EXPECT_EQ(paths.quarantine_evidence(5, 2),
            "/run/quarantine/batch-000005.attempt-2.bad");
}

TEST(FleetProtocol, AtomicWriteCreatesParentsAndReplacesWhole) {
  const std::string dir = test::temp_dir("wormsim_fleet_atomic");
  const std::string path = dir + "/deep/nested/file.json";
  ASSERT_TRUE(util::write_file_atomic(path, "first\n"));
  EXPECT_EQ(util::read_file(path), "first\n");
  ASSERT_TRUE(util::write_file_atomic(path, "second\n"));
  EXPECT_EQ(util::read_file(path), "second\n");
  // No temp litter left behind.
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir + "/deep/nested")) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  EXPECT_FALSE(util::read_file(dir + "/missing").has_value());
  fs::remove_all(dir);
}

TEST(FleetProtocol, ManifestAndCampaignConfigAreInverses) {
  campaign::CampaignConfig config;
  config.seed = 99;
  config.count = 5000;
  config.knobs.cycle_bias = campaign::CycleBias::kForbid;
  config.knobs.synthesized_fraction = 0.5;
  config.knobs.synth_max_pairs = 4;
  config.eval.limits.max_states = 250'000;
  config.fixture_dir = "/tmp/fixtures";
  config.cache_file = "/tmp/should-be-dropped.cache";
  config.status_file = "/tmp/should-be-dropped.json";
  config.shards = 8;

  const FleetManifest manifest = manifest_for(config, 64, 3, 10);
  EXPECT_EQ(manifest.cycle_bias, "forbid");
  EXPECT_EQ(manifest.truth_fingerprint,
            campaign::campaign_truth_fingerprint(config.eval));

  const campaign::CampaignConfig back = campaign_config_from(manifest);
  EXPECT_EQ(back.seed, config.seed);
  EXPECT_EQ(back.count, config.count);
  EXPECT_EQ(back.knobs.cycle_bias, config.knobs.cycle_bias);
  EXPECT_DOUBLE_EQ(back.knobs.synthesized_fraction,
                   config.knobs.synthesized_fraction);
  EXPECT_EQ(back.knobs.synth_max_pairs, config.knobs.synth_max_pairs);
  EXPECT_EQ(back.eval.limits.max_states, config.eval.limits.max_states);
  EXPECT_EQ(back.fixture_dir, config.fixture_dir);
  // The fleet owns persistence and observability at the run-dir level.
  EXPECT_TRUE(back.cache_file.empty());
  EXPECT_TRUE(back.status_file.empty());
  EXPECT_EQ(back.shards, 1u);
  // Round-tripped identity derives the same truth fingerprint — the
  // compatibility check workers enforce at startup.
  EXPECT_EQ(campaign::campaign_truth_fingerprint(back.eval),
            manifest.truth_fingerprint);
}

}  // namespace
}  // namespace wormsim::fleet
