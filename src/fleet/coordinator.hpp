// The fleet coordinator: owns a campaign's scenario index space and drives
// it to completion through any number of worker processes.
//
// The coordinator never evaluates a scenario itself. It cuts the index
// space [0, count) into fixed-geometry batches, publishes them as queue
// files, and then loops over the run directory's observable state:
//
//   expire   a claim whose file mtime is older than the lease horizon
//            belongs to a dead (or wedged) worker — the claim is removed
//            and the batch re-queued with its attempt count bumped;
//   ingest   a result file is validated line-by-line (header geometry,
//            record count, per-record index order) before the batch is
//            accepted; an invalid file is moved aside as quarantine
//            evidence and the batch re-queued;
//   quarantine  a batch whose attempts exceed the manifest's max_attempts
//            is taken out of circulation with a QuarantineRecord — one
//            poison batch cannot wedge the fleet — and stays out, across
//            resumes, until an operator deletes the record;
//   merge    accepted batches are appended to merged.jsonl strictly in
//            batch order, so the merged file grows as a byte-identical
//            prefix of the single-process campaign output at all times;
//   checkpoint  fresh TruthStore records from each batch's cache delta are
//            appended to truth.cache, so a restarted coordinator — or a
//            newly joining worker — starts warm at disk speed.
//
// Crash safety is structural: every decision above is a function of what is
// on disk, so killing the coordinator at any instant and rerunning it
// reproduces the same end state (results are re-scanned, merged.jsonl is
// rebuilt, outstanding batches are re-queued). docs/fleet.md walks through
// the failure drills; tests/fleet/fleet_runtime_test.cpp pins them.
#pragma once

#include <cstdint>
#include <string>

#include "campaign/runner.hpp"
#include "fleet/protocol.hpp"
#include "obs/run_report.hpp"

namespace wormsim::fleet {

struct FleetConfig {
  std::string run_dir;
  /// Campaign identity (seed/count/knobs/limits/fixture_dir). On a fresh
  /// run directory this is written into the manifest; on resume the
  /// existing manifest wins wholesale, so one run directory can never mix
  /// two campaigns.
  campaign::CampaignConfig campaign;
  std::uint64_t batch_size = 64;
  double lease_seconds = 10;
  std::uint64_t max_attempts = 3;
  double poll_interval_seconds = 0.05;
  /// Heartbeat file (kind="fleet"); empty disables sampling. The CLI
  /// defaults this to <run_dir>/status.json.
  std::string status_file;
  double status_interval_seconds = 1.0;
};

struct FleetResult {
  bool complete = false;  ///< every batch finished (none quarantined)
  std::uint64_t batches_total = 0;
  std::uint64_t batches_done = 0;
  std::uint64_t batches_quarantined = 0;
  std::uint64_t retries = 0;  ///< re-queues: lease expiries + bad results
  /// Valid result files already on disk when this coordinator started — a
  /// warm resume inherits them without re-running anything.
  std::uint64_t resumed_results = 0;
  std::uint64_t records = 0;  ///< scenario records merged (== count when complete)
  std::uint64_t agree = 0;
  std::uint64_t disagree = 0;
  std::uint64_t skip = 0;
  std::uint64_t states_total = 0;
  std::uint64_t truth_records = 0;  ///< records in truth.cache at the end
  double elapsed_seconds = 0;
  std::string merged_path;

  /// Flat RunReport (BENCH_fleet.json shape) for the perf trajectory.
  [[nodiscard]] obs::RunReport report(const FleetConfig& config) const;
};

/// Runs the coordinator until every batch is done or quarantined. Blocks;
/// workers are separate processes (or threads — the protocol only touches
/// files) started before or after this call. Writes the shutdown sentinel,
/// the final truth.cache checkpoint, and the final status snapshot before
/// returning.
[[nodiscard]] FleetResult run_coordinator(const FleetConfig& config);

}  // namespace wormsim::fleet
