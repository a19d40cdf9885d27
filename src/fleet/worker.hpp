// The fleet worker: claims batches from a run directory's queue, evaluates
// them with the campaign engine, and publishes results.
//
// A worker is stateless beyond its current batch. Everything it needs is
// in the run directory: the manifest pins the campaign identity (a worker
// takes NO campaign flags of its own — it cannot disagree with the fleet
// about what scenario i means), truth.cache warms its ground-truth store,
// and the queue names the work. Claiming is one rename(2): the worker that
// moves queue/batch-N.json into claims/ owns the lease; everyone else's
// rename fails with ENOENT. While evaluating, a renewal thread rewrites the
// claim file on an interval, keeping its mtime fresh — a SIGKILLed worker
// simply stops renewing and the coordinator re-queues the batch when the
// lease horizon passes.
//
// Execution is at-least-once, effects exactly-once: a batch's result bytes
// are a pure function of the manifest plus its index range, so when a lease
// expires under a slow-but-alive worker and the batch runs twice, both
// workers publish byte-identical files and the atomic rename makes the
// duplicate invisible. The worker double-checks claim ownership before
// deleting its claim, so it never removes a successor's lease.
#pragma once

#include <cstdint>
#include <string>

#include "obs/run_report.hpp"

namespace wormsim::fleet {

struct WorkerConfig {
  std::string run_dir;
  /// Worker identity in leases and result headers; "w<pid>" when empty.
  std::string name;
  double poll_interval_seconds = 0.05;
  /// How long to wait for manifest.json before giving up ("no-manifest").
  /// Lets workers start before the coordinator.
  double manifest_wait_seconds = 30;
  /// Exit when the queue has been empty this long with no shutdown sentinel
  /// (0 = wait for the sentinel forever).
  double max_idle_seconds = 0;
  /// Stop after this many batches (0 = unlimited). For tests and drills.
  std::uint64_t max_batches = 0;
};

struct WorkerResult {
  std::uint64_t batches_done = 0;
  std::uint64_t scenarios = 0;
  /// Truth-store accounting summed over this worker's batches: disk hits
  /// come from the truth.cache checkpoint it loaded at startup, memo hits
  /// from earlier scenarios/batches of this same process.
  std::uint64_t truth_disk_hits = 0;
  std::uint64_t truth_memo_hits = 0;
  std::uint64_t truth_misses = 0;
  std::uint64_t truth_parked = 0;  ///< also counted in truth_memo_hits
  /// Why the loop ended: "shutdown" (sentinel seen, queue empty),
  /// "idle-timeout", "max-batches", "no-manifest", or "manifest-mismatch"
  /// (this binary derives a different truth fingerprint than the manifest
  /// pins — mixed versions; serving would poison the shared cache).
  std::string exit_reason;
};

/// Runs the worker loop until the coordinator's shutdown sentinel (or an
/// idle/batch budget) ends it. Blocks. Safe to run many workers against
/// one run directory, from any mix of processes and threads.
[[nodiscard]] WorkerResult run_worker(const WorkerConfig& config);

}  // namespace wormsim::fleet
