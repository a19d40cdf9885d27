// End-to-end fleet runtime behaviour: clean runs, every failure drill in
// docs/fleet.md (worker killed mid-batch, coordinator killed and resumed,
// torn results, poison batches), and the load-bearing property behind all
// of them — merged.jsonl is byte-identical to the single-process campaign
// output no matter what died along the way. Workers run as threads here;
// the protocol only touches files, so threads and processes are
// interchangeable (CI's fleet-smoke job runs the same drills with real
// processes and SIGKILL).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/runner.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/protocol.hpp"
#include "fleet/worker.hpp"
#include "test_support.hpp"
#include "util/file.hpp"

namespace wormsim::fleet {
namespace {

namespace fs = std::filesystem;

campaign::CampaignConfig base_campaign() {
  campaign::CampaignConfig config;
  config.seed = 2026;
  config.count = 40;
  config.fixture_dir.clear();
  config.eval.limits.max_states = 400'000;
  return config;
}

/// The single-process JSONL the whole fleet must reproduce, computed once.
const std::string& reference_jsonl() {
  static const std::string bytes = [] {
    const campaign::CampaignResult result = campaign::run_campaign(
        base_campaign());
    std::ostringstream os;
    result.write_jsonl(os);
    return os.str();
  }();
  return bytes;
}

FleetConfig fleet_config(const std::string& run_dir) {
  FleetConfig config;
  config.run_dir = run_dir;
  config.campaign = base_campaign();
  config.batch_size = 10;  // 4 batches over the 40 scenarios
  config.poll_interval_seconds = 0.01;
  return config;
}

std::thread start_worker(const std::string& run_dir, const std::string& name,
                         WorkerResult* out) {
  return std::thread([run_dir, name, out] {
    WorkerConfig config;
    config.run_dir = run_dir;
    config.name = name;
    config.poll_interval_seconds = 0.01;
    *out = run_worker(config);
  });
}

std::string merged_bytes(const std::string& run_dir) {
  const auto text = util::read_file(RunPaths(run_dir).merged());
  return text ? *text : std::string("<missing merged.jsonl>");
}

TEST(FleetRuntime, CleanTwoWorkerRunMatchesSingleProcessBytes) {
  const std::string dir = test::temp_dir("wormsim_fleet_clean");
  WorkerResult w0, w1;
  std::thread t0 = start_worker(dir, "w0", &w0);
  std::thread t1 = start_worker(dir, "w1", &w1);
  const FleetResult result = run_coordinator(fleet_config(dir));
  t0.join();
  t1.join();

  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.batches_total, 4u);
  EXPECT_EQ(result.batches_done, 4u);
  EXPECT_EQ(result.batches_quarantined, 0u);
  EXPECT_EQ(result.records, 40u);
  EXPECT_EQ(merged_bytes(dir), reference_jsonl());

  // The sentinel released both workers, and between them they did all the
  // work exactly once.
  EXPECT_EQ(w0.exit_reason, "shutdown");
  EXPECT_EQ(w1.exit_reason, "shutdown");
  EXPECT_EQ(w0.batches_done + w1.batches_done, 4u);
  EXPECT_EQ(w0.scenarios + w1.scenarios, 40u);
  const auto sentinel =
      ShutdownSentinel::from_json(*util::read_file(RunPaths(dir).shutdown()));
  ASSERT_TRUE(sentinel.has_value());
  EXPECT_TRUE(sentinel->complete);
  fs::remove_all(dir);
}

TEST(FleetRuntime, ExpiredLeaseIsReassignedAndBytesAreUnchanged) {
  // The kill-a-worker drill, with the kill pre-staged: a claim whose mtime
  // is far past the lease horizon is exactly what a SIGKILLed worker
  // leaves behind (see docs/fleet.md "Crash drills").
  const std::string dir = test::temp_dir("wormsim_fleet_expired");
  const RunPaths paths(dir);
  FleetConfig config = fleet_config(dir);
  config.lease_seconds = 5;

  const FleetManifest manifest = manifest_for(
      config.campaign, config.batch_size, config.max_attempts,
      config.lease_seconds);
  ASSERT_TRUE(util::write_file_atomic(paths.manifest(), manifest.to_json()));
  BatchLease stale;
  stale.batch = 0;
  stale.first = 0;
  stale.end = 10;
  stale.worker = "dead-worker";
  stale.pid = 1;
  ASSERT_TRUE(util::write_file_atomic(paths.batch_claim(0), stale.to_json()));
  fs::last_write_time(paths.batch_claim(0),
                      fs::file_time_type::clock::now() -
                          std::chrono::seconds(100));

  WorkerResult w0;
  std::thread t0 = start_worker(dir, "w0", &w0);
  const FleetResult result = run_coordinator(config);
  t0.join();

  EXPECT_TRUE(result.complete);
  EXPECT_GE(result.retries, 1u);  // batch 0 was re-queued after the expiry
  EXPECT_EQ(result.records, 40u);
  EXPECT_EQ(merged_bytes(dir), reference_jsonl())
      << "a lost worker must not perturb the merged bytes";
  fs::remove_all(dir);
}

TEST(FleetRuntime, CoordinatorResumesFromResultsWithoutRerunningAnything) {
  const std::string dir = test::temp_dir("wormsim_fleet_resume");
  // First life: a full fleet run.
  {
    WorkerResult w0;
    std::thread t0 = start_worker(dir, "w0", &w0);
    const FleetResult first = run_coordinator(fleet_config(dir));
    t0.join();
    ASSERT_TRUE(first.complete);
  }
  // Second life: the coordinator "restarts". No workers at all — every
  // batch must be inherited from the durable result files, and the merge
  // rebuilt to the same bytes.
  FleetConfig resumed = fleet_config(dir);
  resumed.campaign.seed = 777;  // must be ignored: the manifest wins
  const FleetResult second = run_coordinator(resumed);
  EXPECT_TRUE(second.complete);
  EXPECT_EQ(second.batches_done, 4u);
  EXPECT_EQ(second.resumed_results, 4u);
  EXPECT_EQ(second.retries, 0u);
  EXPECT_EQ(merged_bytes(dir), reference_jsonl());

  // Third life: half the results are gone (mid-run crash, coarser). One
  // worker recomputes exactly the missing half.
  fs::remove(RunPaths(dir).batch_result(2));
  fs::remove(RunPaths(dir).batch_cache(2));
  fs::remove(RunPaths(dir).batch_result(3));
  fs::remove(RunPaths(dir).batch_cache(3));
  // The worker starts before the coordinator here; the previous life's
  // sentinel must not send it home (the resuming coordinator would delete
  // it, but not necessarily first).
  fs::remove(RunPaths(dir).shutdown());
  WorkerResult w0;
  std::thread t0 = start_worker(dir, "w0", &w0);
  const FleetResult third = run_coordinator(fleet_config(dir));
  t0.join();
  EXPECT_TRUE(third.complete);
  EXPECT_EQ(third.resumed_results, 2u);
  EXPECT_EQ(w0.batches_done, 2u);
  EXPECT_EQ(merged_bytes(dir), reference_jsonl());
  // The recomputed batches hit the truth.cache checkpoint, not the search.
  EXPECT_EQ(w0.truth_misses, 0u)
      << "warm resume must answer ground truth from truth.cache";
  fs::remove_all(dir);
}

TEST(FleetRuntime, TornResultIsKeptAsEvidenceAndRecomputed) {
  const std::string dir = test::temp_dir("wormsim_fleet_torn");
  const RunPaths paths(dir);
  const FleetConfig config = fleet_config(dir);
  const FleetManifest manifest = manifest_for(
      config.campaign, config.batch_size, config.max_attempts,
      config.lease_seconds);
  ASSERT_TRUE(util::write_file_atomic(paths.manifest(), manifest.to_json()));

  // A result whose header promises 10 records but whose body was torn off
  // — what a worker dying inside a non-atomic write would have produced
  // (the protocol's atomic rename makes this near-impossible, but the
  // coordinator trusts nothing).
  ResultHeader header;
  header.batch = 0;
  header.first = 0;
  header.end = 10;
  header.worker = "liar";
  header.records = 10;
  ASSERT_TRUE(
      util::write_file_atomic(paths.batch_result(0), header.to_json() + "\n"));

  WorkerResult w0;
  std::thread t0 = start_worker(dir, "w0", &w0);
  const FleetResult result = run_coordinator(config);
  t0.join();

  EXPECT_TRUE(result.complete);
  EXPECT_GE(result.retries, 1u);
  EXPECT_EQ(merged_bytes(dir), reference_jsonl());
  // The rejected bytes were preserved for post-mortem, with a reasoned log.
  const auto evidence = util::read_file(paths.quarantine_evidence(0, 1));
  ASSERT_TRUE(evidence.has_value());
  EXPECT_NE(evidence->find("\"worker\":\"liar\""), std::string::npos);
  fs::remove_all(dir);
}

TEST(FleetRuntime, PoisonBatchIsQuarantinedInsteadOfWedgingTheFleet) {
  // Two planted results: garbage, and a well-formed file of all ten records
  // whose first index is 0.5 (which would truncate to the expected 0 if
  // read through a double).
  ResultHeader header;
  header.end = 10;
  header.worker = "liar";
  header.records = 10;
  std::string fractional = header.to_json() + "\n";
  for (int i = 0; i < 10; ++i)
    fractional += "{\"index\":" + (i == 0 ? "0.5" : std::to_string(i)) +
                  ",\"verdict\":\"agree\",\"states\":1}\n";
  for (const std::string& planted :
       {std::string("not a result\n"), fractional}) {
    const std::string dir = test::temp_dir("wormsim_fleet_poison");
    const RunPaths paths(dir);
    FleetConfig config = fleet_config(dir);
    config.campaign.count = 10;  // a single batch
    config.max_attempts = 1;
    const FleetManifest manifest = manifest_for(
        config.campaign, config.batch_size, config.max_attempts,
        config.lease_seconds);
    ASSERT_TRUE(
        util::write_file_atomic(paths.manifest(), manifest.to_json()));
    ASSERT_TRUE(util::write_file_atomic(paths.batch_result(0), planted));

    // No workers: the only attempt is the planted file, so the batch must
    // quarantine — and the coordinator must terminate anyway.
    const FleetResult result = run_coordinator(config);
    EXPECT_FALSE(result.complete) << planted;
    EXPECT_EQ(result.batches_quarantined, 1u);
    EXPECT_EQ(result.batches_done, 0u);

    const auto record = QuarantineRecord::from_json(
        *util::read_file(paths.batch_quarantine(0)));
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->attempts, 1u);
    EXPECT_NE(record->reason.find("invalid result"), std::string::npos);
    // The merge stops at the hole: nothing may be written past it.
    EXPECT_EQ(merged_bytes(dir), "");
    const auto sentinel =
        ShutdownSentinel::from_json(*util::read_file(paths.shutdown()));
    ASSERT_TRUE(sentinel.has_value());
    EXPECT_FALSE(sentinel->complete);
    fs::remove_all(dir);
  }
}

TEST(FleetRuntime, ResumeKeepsQuarantinedBatchesOut) {
  // docs/fleet.md: a quarantined batch re-queues only once an operator
  // deletes its record. A coordinator resumed over a record must count the
  // batch as quarantined and never publish it, even with a worker idle.
  const std::string dir = test::temp_dir("wormsim_fleet_resume_quarantine");
  const RunPaths paths(dir);
  FleetConfig config = fleet_config(dir);
  config.campaign.count = 10;  // a single batch
  const FleetManifest manifest = manifest_for(
      config.campaign, config.batch_size, config.max_attempts,
      config.lease_seconds);
  fs::create_directories(paths.quarantine_dir());
  ASSERT_TRUE(util::write_file_atomic(paths.manifest(), manifest.to_json()));
  QuarantineRecord planted;
  planted.end = 10;
  planted.attempts = 3;
  planted.reason = "planted";
  ASSERT_TRUE(util::write_file_atomic(paths.batch_quarantine(0),
                                      planted.to_json()));

  WorkerResult w0;
  std::thread t0([&] {
    WorkerConfig worker;
    worker.run_dir = dir;
    worker.name = "w0";
    worker.poll_interval_seconds = 0.01;
    worker.max_idle_seconds = 0.5;
    w0 = run_worker(worker);
  });
  const FleetResult result = run_coordinator(config);
  t0.join();

  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.batches_quarantined, 1u);
  EXPECT_EQ(result.batches_done, 0u);
  EXPECT_EQ(w0.batches_done, 0u);
  EXPECT_TRUE(fs::exists(paths.batch_quarantine(0)));
  EXPECT_FALSE(fs::exists(paths.batch_task(0)));
  fs::remove_all(dir);
}

TEST(FleetRuntime, WorkerExitReasonsCoverTheIdlePaths) {
  const std::string dir = test::temp_dir("wormsim_fleet_idle");
  fs::create_directories(dir);
  const RunPaths paths(dir);

  WorkerConfig config;
  config.run_dir = dir;
  config.name = "w0";
  config.poll_interval_seconds = 0.01;

  // No manifest at all: give up after the wait budget.
  config.manifest_wait_seconds = 0.05;
  EXPECT_EQ(run_worker(config).exit_reason, "no-manifest");

  const FleetManifest manifest =
      manifest_for(base_campaign(), 10, 3, 10);
  ASSERT_TRUE(util::write_file_atomic(paths.manifest(), manifest.to_json()));

  // Manifest but no work and no sentinel: idle timeout.
  config.max_idle_seconds = 0.05;
  EXPECT_EQ(run_worker(config).exit_reason, "idle-timeout");

  // Sentinel present, queue empty: orderly shutdown.
  config.max_idle_seconds = 0;
  ASSERT_TRUE(util::write_file_atomic(paths.shutdown(),
                                ShutdownSentinel{true}.to_json()));
  const WorkerResult done = run_worker(config);
  EXPECT_EQ(done.exit_reason, "shutdown");
  EXPECT_EQ(done.batches_done, 0u);
  fs::remove_all(dir);
}

TEST(FleetRuntime, WarmTruthCacheCarriesAcrossRunDirectories) {
  // A completed run's truth.cache warm-starts a brand new run directory of
  // the same campaign: the second fleet does zero ground-truth searches.
  const std::string cold_dir = test::temp_dir("wormsim_fleet_cold");
  const std::string warm_dir = test::temp_dir("wormsim_fleet_warm");
  {
    WorkerResult w0;
    std::thread t0 = start_worker(cold_dir, "w0", &w0);
    const FleetResult cold = run_coordinator(fleet_config(cold_dir));
    t0.join();
    ASSERT_TRUE(cold.complete);
    EXPECT_GT(cold.truth_records, 0u);
    EXPECT_GT(w0.truth_misses, 0u);  // the cold run did real searches
  }
  fs::create_directories(warm_dir);
  fs::copy_file(RunPaths(cold_dir).truth_cache(),
                RunPaths(warm_dir).truth_cache());
  WorkerResult w0;
  std::thread t0 = start_worker(warm_dir, "w0", &w0);
  const FleetResult warm = run_coordinator(fleet_config(warm_dir));
  t0.join();
  EXPECT_TRUE(warm.complete);
  EXPECT_EQ(w0.truth_misses, 0u);
  EXPECT_GT(w0.truth_disk_hits, 0u);
  EXPECT_EQ(merged_bytes(warm_dir), merged_bytes(cold_dir))
      << "a warm cache is a pure speedup";
  fs::remove_all(cold_dir);
  fs::remove_all(warm_dir);
}

}  // namespace
}  // namespace wormsim::fleet
