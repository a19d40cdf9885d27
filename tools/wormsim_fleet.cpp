// wormsim_fleet — fleet campaign coordinator and worker CLI.
//
// Runs the campaign engine as a fleet: one coordinator process owns a run
// directory and the scenario index space; any number of worker processes
// claim dynamic batches from its file queue, evaluate them, and publish
// results. Workers can be killed at any instant (their leases expire and
// the batches are re-queued), the coordinator can be killed and restarted
// (it resumes from the durable result files and the truth.cache
// checkpoint), and the merged JSONL is byte-identical to a single-process
// `wormsim_campaign` run with the same seed/count/knobs.
//
// Determinism: <run-dir>/merged.jsonl depends only on the campaign identity
// in the manifest — never on worker count, batch boundaries, crashes, or
// retries. `--help` lists every flag; docs/fleet.md is the operator's
// manual.
#include <cstdio>
#include <string>

#include "campaign_flags.hpp"
#include "cli.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/protocol.hpp"
#include "fleet/worker.hpp"
#include "obs/run_report.hpp"

using namespace wormsim;

int main(int argc, char** argv) {
  fleet::FleetConfig config;
  fleet::WorkerConfig worker;
  bool worker_mode = false;
  bool quiet = false;

  cli::Parser parser(
      "wormsim_fleet", "--run-dir DIR [--worker] [flags]",
      "exit: 0 clean, 1 disagreements, 2 usage, 4 batches quarantined,\n"
      "      5 worker found no usable manifest\n"
      "see docs/fleet.md for the full operator's manual\n");
  parser.text("--run-dir", "DIR", config.run_dir,
              "the run directory every fleet process shares (required)");
  parser.flag("--worker", worker_mode,
              "run as a worker; the campaign comes from the manifest");
  cli::campaign_flags(parser, config.campaign);
  parser.integer("--batch-size", config.batch_size, "indices per batch", 1);
  parser.seconds("--lease-seconds", config.lease_seconds,
                 "claim freshness horizon before a batch is re-queued");
  parser.integer("--max-attempts", config.max_attempts,
                 "attempts before a batch is quarantined", 1);
  cli::status_flags(parser, config.status_file,
                    config.status_interval_seconds);
  parser.seconds("--poll-interval", config.poll_interval_seconds,
                 "queue and result polling interval");
  parser.text("--name", "NAME", worker.name,
              "worker name in leases and result headers (default w<pid>)");
  parser.seconds("--max-idle-seconds", worker.max_idle_seconds,
                 "worker exits after this long with an empty queue; 0 = never");
  parser.integer("--max-batches", worker.max_batches,
                 "worker stops after this many batches; 0 = unlimited");
  parser.seconds("--manifest-wait", worker.manifest_wait_seconds,
                 "how long a worker waits for manifest.json");
  parser.flag("--quiet", quiet, "suppress the summary line");
  parser.parse(argc, argv);
  if (config.run_dir.empty()) return parser.error("--run-dir is required");

  if (worker_mode) {
    worker.run_dir = config.run_dir;
    worker.poll_interval_seconds = config.poll_interval_seconds;
    const fleet::WorkerResult result = fleet::run_worker(worker);
    if (!quiet)
      std::printf(
          "worker %s: batches=%llu scenarios=%llu disk-hits=%llu "
          "memo-hits=%llu parked=%llu misses=%llu (%s)\n",
          worker.name.empty() ? "w<pid>" : worker.name.c_str(),
          static_cast<unsigned long long>(result.batches_done),
          static_cast<unsigned long long>(result.scenarios),
          static_cast<unsigned long long>(result.truth_disk_hits),
          static_cast<unsigned long long>(result.truth_memo_hits),
          static_cast<unsigned long long>(result.truth_parked),
          static_cast<unsigned long long>(result.truth_misses),
          result.exit_reason.c_str());
    if (result.exit_reason == "no-manifest" ||
        result.exit_reason == "manifest-mismatch")
      return 5;
    return 0;
  }

  if (!parser.seen("--status-file"))
    config.status_file = fleet::RunPaths(config.run_dir).status();

  const fleet::FleetResult result = fleet::run_coordinator(config);

  obs::RunReport report = result.report(config);
  if (!obs::write_report_file(report))
    std::fprintf(stderr, "wormsim_fleet: failed to write BENCH report\n");

  if (!quiet) {
    std::printf(
        "fleet run-dir=%s batches=%llu done=%llu quarantined=%llu\n"
        "  records=%llu agree=%llu disagree=%llu skip=%llu states=%llu\n"
        "  retries=%llu resumed=%llu truth-records=%llu\n"
        "  elapsed=%.2fs (%.1f scenarios/s)\n"
        "  merged %s\n",
        config.run_dir.c_str(),
        static_cast<unsigned long long>(result.batches_total),
        static_cast<unsigned long long>(result.batches_done),
        static_cast<unsigned long long>(result.batches_quarantined),
        static_cast<unsigned long long>(result.records),
        static_cast<unsigned long long>(result.agree),
        static_cast<unsigned long long>(result.disagree),
        static_cast<unsigned long long>(result.skip),
        static_cast<unsigned long long>(result.states_total),
        static_cast<unsigned long long>(result.retries),
        static_cast<unsigned long long>(result.resumed_results),
        static_cast<unsigned long long>(result.truth_records),
        result.elapsed_seconds,
        result.elapsed_seconds > 0
            ? static_cast<double>(result.records) / result.elapsed_seconds
            : 0.0,
        result.merged_path.c_str());
  }

  if (!result.complete) {
    std::fprintf(stderr,
                 "wormsim_fleet: %llu batch(es) quarantined — merged.jsonl "
                 "is a prefix, see <run-dir>/quarantine/\n",
                 static_cast<unsigned long long>(result.batches_quarantined));
    return 4;
  }
  return result.disagree == 0 ? 0 : 1;
}
