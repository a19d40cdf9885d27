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
// Usage:
//   wormsim_fleet --run-dir DIR [--seed N] [--count N] [--batch-size N]
//                 [--lease-seconds S] [--max-attempts N]
//                 [--bias any|force|forbid] [--synth-fraction F]
//                 [--synth-pairs N] [--max-states N]
//                 [--reduction off|safe] [--fixture-dir DIR]
//                 [--status-file FILE] [--status-interval S]
//                 [--poll-interval S] [--quiet]
//   wormsim_fleet --worker --run-dir DIR [--name NAME]
//                 [--max-idle-seconds S] [--max-batches N]
//                 [--manifest-wait S] [--poll-interval S] [--quiet]
//
// Determinism: <run-dir>/merged.jsonl depends only on the campaign identity
// in the manifest — never on worker count, batch boundaries, crashes, or
// retries. docs/fleet.md is the operator's manual.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "fleet/coordinator.hpp"
#include "fleet/protocol.hpp"
#include "fleet/worker.hpp"
#include "obs/run_report.hpp"
#include "obs/status.hpp"

using namespace wormsim;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --run-dir DIR [--seed N] [--count N] [--batch-size N]\n"
      "          [--lease-seconds S] [--max-attempts N]\n"
      "          [--bias any|force|forbid] [--synth-fraction F]\n"
      "          [--synth-pairs N] [--max-states N]\n"
      "          [--reduction off|safe] [--fixture-dir DIR]\n"
      "          [--status-file FILE] [--status-interval S]\n"
      "          [--poll-interval S] [--quiet]\n"
      "       %s --worker --run-dir DIR [--name NAME]\n"
      "          [--max-idle-seconds S] [--max-batches N]\n"
      "          [--manifest-wait S] [--poll-interval S] [--quiet]\n"
      "exit: 0 clean, 1 disagreements, 2 usage, 4 batches quarantined,\n"
      "      5 worker found no usable manifest\n"
      "see docs/fleet.md for the full operator's manual\n",
      argv0, argv0);
  return 2;
}

/// Parses a decimal flag value in [min, max]. strtoull alone accepts "-1"
/// (wrapping it to 2^64-1) and saturates out-of-range input, and the
/// narrowing casts at the call sites would truncate what it returns.
std::uint64_t parse_u64(
    const char* text, const char* flag, std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*text < '0' || *text > '9' || *end != '\0' || errno == ERANGE ||
      v < min || v > max) {
    std::fprintf(stderr,
                 "wormsim_fleet: bad value for %s: '%s' (expected an "
                 "integer in [%llu, %llu])\n",
                 flag, text, static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(max));
    std::exit(2);
  }
  return v;
}

double parse_seconds(const char* text, const char* flag) {
  const auto v = obs::parse_seconds(text);
  if (!v) {
    std::fprintf(stderr,
                 "wormsim_fleet: bad value for %s: '%s' (expected finite "
                 "seconds > 0)\n",
                 flag, text);
    std::exit(2);
  }
  return *v;
}

}  // namespace

int main(int argc, char** argv) {
  fleet::FleetConfig config;
  fleet::WorkerConfig worker;
  bool worker_mode = false;
  bool quiet = false;
  bool status_file_set = false;
  double max_idle_seconds = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "wormsim_fleet: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--worker") {
      worker_mode = true;
    } else if (arg == "--run-dir") {
      config.run_dir = value();
    } else if (arg == "--seed") {
      config.campaign.seed = parse_u64(value(), "--seed");
    } else if (arg == "--count") {
      config.campaign.count = parse_u64(value(), "--count");
    } else if (arg == "--batch-size") {
      config.batch_size = parse_u64(value(), "--batch-size", 1);
    } else if (arg == "--lease-seconds") {
      config.lease_seconds = parse_seconds(value(), "--lease-seconds");
    } else if (arg == "--max-attempts") {
      config.max_attempts = parse_u64(value(), "--max-attempts", 1);
    } else if (arg == "--bias") {
      const std::string bias = value();
      if (bias == "any") {
        config.campaign.knobs.cycle_bias = campaign::CycleBias::kAny;
      } else if (bias == "force") {
        config.campaign.knobs.cycle_bias = campaign::CycleBias::kForce;
      } else if (bias == "forbid") {
        config.campaign.knobs.cycle_bias = campaign::CycleBias::kForbid;
      } else {
        return usage(argv[0]);
      }
    } else if (arg == "--synth-fraction") {
      char* end = nullptr;
      config.campaign.knobs.synthesized_fraction = std::strtod(value(), &end);
      if (end == argv[i] || *end != '\0' ||
          config.campaign.knobs.synthesized_fraction < 0 ||
          config.campaign.knobs.synthesized_fraction > 1) {
        std::fprintf(stderr, "wormsim_fleet: bad value for --synth-fraction\n");
        return 2;
      }
    } else if (arg == "--synth-pairs") {
      config.campaign.knobs.synth_max_pairs = static_cast<int>(parse_u64(
          value(), "--synth-pairs", 2, std::numeric_limits<int>::max()));
    } else if (arg == "--max-states") {
      config.campaign.eval.limits.max_states =
          parse_u64(value(), "--max-states");
    } else if (arg == "--reduction") {
      const char* text = value();
      const auto mode = analysis::reduction_from_string(text);
      if (!mode) {
        std::fprintf(stderr,
                     "wormsim_fleet: bad value for --reduction: '%s' "
                     "(expected off|safe)\n",
                     text);
        return usage(argv[0]);
      }
      config.campaign.eval.limits.reduction = *mode;
    } else if (arg == "--fixture-dir") {
      config.campaign.fixture_dir = value();
    } else if (arg == "--status-file") {
      config.status_file = value();
      status_file_set = true;
    } else if (arg == "--status-interval") {
      config.status_interval_seconds =
          parse_seconds(value(), "--status-interval");
    } else if (arg == "--poll-interval") {
      const double v = parse_seconds(value(), "--poll-interval");
      config.poll_interval_seconds = v;
      worker.poll_interval_seconds = v;
    } else if (arg == "--name") {
      worker.name = value();
    } else if (arg == "--max-idle-seconds") {
      max_idle_seconds = parse_seconds(value(), "--max-idle-seconds");
    } else if (arg == "--max-batches") {
      worker.max_batches = parse_u64(value(), "--max-batches");
    } else if (arg == "--manifest-wait") {
      worker.manifest_wait_seconds =
          parse_seconds(value(), "--manifest-wait");
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      return usage(argv[0]);
    }
  }

  if (config.run_dir.empty()) {
    std::fprintf(stderr, "wormsim_fleet: --run-dir is required\n");
    return 2;
  }

  if (worker_mode) {
    worker.run_dir = config.run_dir;
    worker.max_idle_seconds = max_idle_seconds;
    const fleet::WorkerResult result = fleet::run_worker(worker);
    if (!quiet)
      std::printf(
          "worker %s: batches=%llu scenarios=%llu disk-hits=%llu "
          "memo-hits=%llu misses=%llu (%s)\n",
          worker.name.empty() ? "w<pid>" : worker.name.c_str(),
          static_cast<unsigned long long>(result.batches_done),
          static_cast<unsigned long long>(result.scenarios),
          static_cast<unsigned long long>(result.truth_disk_hits),
          static_cast<unsigned long long>(result.truth_memo_hits),
          static_cast<unsigned long long>(result.truth_misses),
          result.exit_reason.c_str());
    if (result.exit_reason == "no-manifest" ||
        result.exit_reason == "manifest-mismatch")
      return 5;
    return 0;
  }

  if (!status_file_set)
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
