// wormsim_campaign — randomized theorem-vs-search cross-checking CLI.
//
// Generates a pinned-seed stream of scenarios (paper ring families and random
// oblivious algorithms on small topologies), predicts each one's deadlock
// behaviour from the paper's theorems, cross-checks the prediction against
// the exhaustive reachability search, and writes one JSONL record per
// scenario plus a BENCH_campaign.json summary. Any disagreement is shrunk to
// a minimal reproducer fixture and makes the exit status nonzero, so CI can
// run a smoke campaign as a tripwire over the whole theorem/search stack.
//
// Usage:
//   wormsim_campaign [--seed N] [--count N] [--shards N] [--out FILE]
//                    [--cache-file FILE] [--shard-index I --shard-total N]
//                    [--fixture-dir DIR] [--max-states N] [--bias any|force|forbid]
//                    [--reduction off|safe] [--cross-check-reduction]
//                    [--search-threads N] [--steal-granularity N]
//                    [--memo-budget BYTES]
//                    [--probe-out-of-scope] [--profile]
//                    [--status-file FILE] [--status-interval SECONDS]
//                    [--no-shrink] [--quiet]
//   wormsim_campaign --replay FIXTURE.json [--max-states N] [--reduction MODE]
//   wormsim_campaign --merge [--out FILE] [--cache-file FILE] INPUT...
//
// Determinism: the JSONL bytes depend only on (--seed, --count, generator
// knobs, search limits) — never on --shards, --cache-file, or wall-clock —
// so reruns diff clean and shard/cache changes are pure speedups.
// --shard-index/--shard-total run one contiguous slice of the index space
// per process; concatenating (or --merge-ing) the slices reproduces the
// single-process bytes. docs/campaign.md is the operator's manual.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/runner.hpp"
#include "obs/json.hpp"
#include "obs/run_report.hpp"
#include "obs/status.hpp"

using namespace wormsim;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed N] [--count N] [--shards N] [--out FILE]\n"
               "          [--cache-file FILE] [--shard-index I --shard-total N]\n"
               "          [--fixture-dir DIR] [--max-states N]\n"
               "          [--bias any|force|forbid] [--synth-fraction F]\n"
               "          [--synth-pairs N] [--reduction off|safe]\n"
               "          [--cross-check-reduction] [--search-threads N]\n"
               "          [--steal-granularity N] [--memo-budget BYTES]\n"
               "          [--probe-out-of-scope] [--profile] [--no-shrink]\n"
               "          [--status-file FILE] [--status-interval SECONDS]\n"
               "          [--quiet]\n"
               "       %s --replay FIXTURE.json [--max-states N] [--reduction MODE]\n"
               "       %s --merge [--out FILE] [--cache-file FILE] INPUT...\n"
               "exit: 0 clean, 1 disagreements, 2 usage, 3 reduction divergence\n"
               "see docs/campaign.md for the full operator's manual\n",
               argv0, argv0, argv0);
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
                 "wormsim_campaign: bad value for %s: '%s' (expected an "
                 "integer in [%llu, %llu])\n",
                 flag, text, static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(max));
    std::exit(2);
  }
  return v;
}

/// Replays the "shrunk" (preferred) or "scenario" object of a disagreement
/// fixture and reports whether the disagreement still reproduces. Exit 0 =
/// fixed (now agrees), 1 = still disagrees, 2 = unusable fixture.
int replay_fixture(const std::string& path, const campaign::EvalOptions& eval) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "wormsim_campaign: cannot open %s\n", path.c_str());
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  auto scenario = campaign::scenario_from_fixture(text, "shrunk");
  if (!scenario) scenario = campaign::scenario_from_fixture(text, "scenario");
  if (!scenario) {
    std::fprintf(stderr, "wormsim_campaign: no scenario in %s\n", path.c_str());
    return 2;
  }

  const campaign::Evaluation result = campaign::replay_scenario(*scenario, eval);
  std::printf("replay %s\n  scenario  %s\n  rule      %s\n  predicted %s\n"
              "  outcome   %s\n  verdict   %s\n",
              path.c_str(), scenario->describe().c_str(),
              result.classification.rule.c_str(),
              campaign::to_string(result.classification.prediction),
              campaign::to_string(result.outcome),
              campaign::to_string(result.verdict));
  return result.verdict == campaign::Verdict::kDisagree ? 1 : 0;
}

/// True when `path` starts with the TruthStore magic (any version).
bool looks_like_truth_store(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string word;
  return bool(in >> word) && word == "wormsim-truthstore";
}

/// --merge: validates and combines shard outputs. JSONL slices must parse
/// line-by-line, carry no duplicate indices, and together cover a gapless
/// 0..n-1 range; the merged file (--out) is their lines reordered by index,
/// byte-identical to a single-process run. Cache files must share one
/// fingerprint and agree on every overlapping key; the union is written to
/// --cache-file. Exit 0 = merged, 2 = validation failure.
int merge_inputs(const std::vector<std::string>& inputs,
                 const std::string& out_path, const std::string& cache_path) {
  std::map<std::uint64_t, std::string> lines;  // index -> original bytes
  std::unique_ptr<campaign::TruthStore> merged_cache;
  std::size_t jsonl_inputs = 0, cache_inputs = 0;

  for (const std::string& path : inputs) {
    if (looks_like_truth_store(path)) {
      const auto fp = campaign::TruthStore::peek_fingerprint(path);
      if (!fp) {
        std::fprintf(stderr,
                     "wormsim_campaign: %s: unsupported truth-store version\n",
                     path.c_str());
        return 2;
      }
      if (!merged_cache)
        merged_cache = std::make_unique<campaign::TruthStore>(*fp);
      campaign::TruthStore part(merged_cache->fingerprint());
      const campaign::TruthLoadStats stats = part.load(path);
      if (!stats.fingerprint_ok) {
        std::fprintf(stderr,
                     "wormsim_campaign: %s: fingerprint mismatch (caches from "
                     "different search limits cannot be merged)\n",
                     path.c_str());
        return 2;
      }
      if (stats.dropped > 0)
        std::fprintf(stderr,
                     "wormsim_campaign: %s: dropped %zu corrupt trailing "
                     "line(s)\n",
                     path.c_str(), stats.dropped);
      std::string error;
      if (!merged_cache->merge_from(part, &error)) {
        std::fprintf(stderr, "wormsim_campaign: %s: %s\n", path.c_str(),
                     error.c_str());
        return 2;
      }
      ++cache_inputs;
      continue;
    }

    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "wormsim_campaign: cannot open %s\n", path.c_str());
      return 2;
    }
    ++jsonl_inputs;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      const auto parsed = obs::json::parse(line);
      const auto* index =
          parsed && parsed->is_object() ? parsed->find("index") : nullptr;
      const auto* verdict =
          parsed && parsed->is_object() ? parsed->find("verdict") : nullptr;
      if (!index || !index->is_number() || !verdict || !verdict->is_string()) {
        std::fprintf(stderr,
                     "wormsim_campaign: %s:%zu: not a campaign record\n",
                     path.c_str(), line_no);
        return 2;
      }
      const auto i = static_cast<std::uint64_t>(index->as_number());
      if (!lines.emplace(i, line).second) {
        std::fprintf(stderr,
                     "wormsim_campaign: %s:%zu: duplicate index %llu "
                     "(overlapping slices?)\n",
                     path.c_str(), line_no,
                     static_cast<unsigned long long>(i));
        return 2;
      }
    }
  }

  if (jsonl_inputs > 0) {
    if (lines.empty() || lines.begin()->first != 0 ||
        lines.rbegin()->first != lines.size() - 1) {
      std::fprintf(stderr,
                   "wormsim_campaign: merged indices do not cover 0..%zu "
                   "without gaps (missing a slice?)\n",
                   lines.empty() ? 0 : lines.size() - 1);
      return 2;
    }
    if (out_path.empty()) {
      std::fprintf(stderr,
                   "wormsim_campaign: --merge with JSONL inputs needs --out\n");
      return 2;
    }
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "wormsim_campaign: cannot write %s\n",
                   out_path.c_str());
      return 2;
    }
    for (const auto& [i, text] : lines) out << text << "\n";
    std::printf("merged %zu records from %zu slice(s) into %s\n", lines.size(),
                jsonl_inputs, out_path.c_str());
  }
  if (cache_inputs > 0) {
    if (cache_path.empty()) {
      std::fprintf(
          stderr,
          "wormsim_campaign: --merge with cache inputs needs --cache-file\n");
      return 2;
    }
    if (!merged_cache->save(cache_path)) {
      std::fprintf(stderr, "wormsim_campaign: cannot write %s\n",
                   cache_path.c_str());
      return 2;
    }
    std::printf("merged %zu truth record(s) from %zu cache(s) into %s\n",
                merged_cache->size(), cache_inputs, cache_path.c_str());
  }
  if (jsonl_inputs + cache_inputs == 0) {
    std::fprintf(stderr, "wormsim_campaign: --merge needs input files\n");
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  campaign::CampaignConfig config;
  config.count = 1000;
  std::string out_path = "campaign.jsonl";
  std::string replay_path;
  bool out_path_set = false;
  bool merge = false;
  std::vector<std::string> merge_inputs_list;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "wormsim_campaign: %s needs a value\n",
                     arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      config.seed = parse_u64(value(), "--seed");
    } else if (arg == "--count") {
      config.count = parse_u64(value(), "--count");
    } else if (arg == "--shards") {
      config.shards = static_cast<unsigned>(parse_u64(
          value(), "--shards", 0, std::numeric_limits<unsigned>::max()));
    } else if (arg == "--shard-index") {
      config.shard_index = parse_u64(value(), "--shard-index");
    } else if (arg == "--shard-total") {
      config.shard_total = parse_u64(value(), "--shard-total");
    } else if (arg == "--cache-file") {
      config.cache_file = value();
    } else if (arg == "--out") {
      out_path = value();
      out_path_set = true;
    } else if (arg == "--fixture-dir") {
      config.fixture_dir = value();
    } else if (arg == "--max-states") {
      config.eval.limits.max_states = parse_u64(value(), "--max-states");
    } else if (arg == "--reduction") {
      const char* text = value();
      const auto mode = analysis::reduction_from_string(text);
      if (!mode) {
        std::fprintf(stderr,
                     "wormsim_campaign: bad value for --reduction: '%s' "
                     "(expected off|safe)\n",
                     text);
        return usage(argv[0]);
      }
      config.eval.limits.reduction = *mode;
    } else if (arg == "--cross-check-reduction") {
      config.eval.cross_check_reduction = true;
    } else if (arg == "--search-threads") {
      // Honored by --replay; campaign ground truth forces 1 thread so
      // recorded states stay deterministic (see EvalOptions::limits).
      config.eval.limits.threads = static_cast<unsigned>(
          parse_u64(value(), "--search-threads", 0,
                    std::numeric_limits<unsigned>::max()));
    } else if (arg == "--steal-granularity") {
      // Work-stealing split width; schedule-only, never folded into the
      // truth fingerprint (campaign probes run single-threaded anyway).
      config.eval.limits.steal_granularity =
          static_cast<std::size_t>(parse_u64(value(), "--steal-granularity"));
    } else if (arg == "--memo-budget") {
      // Cap on the StateTable's accounted bytes; over-budget searches
      // report inconclusive, so this is fingerprint-affecting too.
      config.eval.limits.memo_budget_bytes =
          parse_u64(value(), "--memo-budget");
    } else if (arg == "--bias") {
      const std::string bias = value();
      if (bias == "any") {
        config.knobs.cycle_bias = campaign::CycleBias::kAny;
      } else if (bias == "force") {
        config.knobs.cycle_bias = campaign::CycleBias::kForce;
      } else if (bias == "forbid") {
        config.knobs.cycle_bias = campaign::CycleBias::kForbid;
      } else {
        return usage(argv[0]);
      }
    } else if (arg == "--synth-fraction") {
      // Fraction of non-family scenarios drawn from the synthesized-routing
      // class (existence certificate compiled to a table, cross-checked by
      // the search). 0 keeps legacy campaign bytes unchanged.
      char* end = nullptr;
      config.knobs.synthesized_fraction = std::strtod(value(), &end);
      if (end == argv[i] || *end != '\0' ||
          config.knobs.synthesized_fraction < 0 ||
          config.knobs.synthesized_fraction > 1) {
        std::fprintf(stderr,
                     "wormsim_campaign: bad value for --synth-fraction\n");
        return 2;
      }
    } else if (arg == "--synth-pairs") {
      config.knobs.synth_max_pairs = static_cast<int>(parse_u64(
          value(), "--synth-pairs", 2, std::numeric_limits<int>::max()));
    } else if (arg == "--status-file") {
      // Live heartbeat (docs/observability.md); watch with wormsim_status.
      config.status_file = value();
    } else if (arg == "--status-interval") {
      const char* text = value();
      const auto seconds = obs::parse_seconds(text);
      if (!seconds) {
        std::fprintf(stderr,
                     "wormsim_campaign: bad value for --status-interval: "
                     "'%s' (expected finite seconds > 0)\n",
                     text);
        return 2;
      }
      config.status_interval_seconds = *seconds;
    } else if (arg == "--probe-out-of-scope") {
      config.eval.probe_out_of_scope = true;
    } else if (arg == "--profile") {
      config.collect_profile = true;
    } else if (arg == "--no-shrink") {
      config.shrink_disagreements = false;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--replay") {
      replay_path = value();
    } else if (arg == "--merge") {
      merge = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (merge && arg.rfind("--", 0) != 0) {
      merge_inputs_list.push_back(arg);
    } else {
      return usage(argv[0]);
    }
  }

  if (merge)
    return merge_inputs(merge_inputs_list, out_path_set ? out_path : "",
                        config.cache_file);
  if (!replay_path.empty()) return replay_fixture(replay_path, config.eval);
  if (config.shard_total == 0 || config.shard_index >= config.shard_total) {
    std::fprintf(stderr,
                 "wormsim_campaign: --shard-index must be < --shard-total\n");
    return 2;
  }

  const campaign::CampaignResult result = campaign::run_campaign(config);

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "wormsim_campaign: cannot write %s\n",
                 out_path.c_str());
    return 2;
  }
  result.write_jsonl(out);

  obs::RunReport report = result.report(config);
  if (!obs::write_report_file(report))
    std::fprintf(stderr, "wormsim_campaign: failed to write BENCH report\n");

  if (!quiet) {
    std::printf(
        "campaign seed=%llu count=%llu shards=%u\n",
        static_cast<unsigned long long>(config.seed),
        static_cast<unsigned long long>(config.count), result.shards_used);
    if (config.shard_total > 1)
      std::printf("  slice %llu/%llu: indices [%llu, %llu)\n",
                  static_cast<unsigned long long>(config.shard_index),
                  static_cast<unsigned long long>(config.shard_total),
                  static_cast<unsigned long long>(result.first_index),
                  static_cast<unsigned long long>(result.end_index));
    std::printf(
        "  agree=%llu disagree=%llu skip=%llu states=%llu\n"
        "  elapsed=%.2fs (%.1f scenarios/s)\n",
        static_cast<unsigned long long>(result.agree),
        static_cast<unsigned long long>(result.disagree),
        static_cast<unsigned long long>(result.skip),
        static_cast<unsigned long long>(result.states_total),
        result.elapsed_seconds,
        result.elapsed_seconds > 0
            ? static_cast<double>(result.records.size()) /
                  result.elapsed_seconds
            : 0.0);
    if (config.eval.cross_check_reduction)
      std::printf("  reduction cross-check: %llu divergence(s)\n",
                  static_cast<unsigned long long>(
                      result.reduction_divergences));
    if (!config.cache_file.empty())
      std::printf("  truth-cache %s: loaded=%llu disk-hits=%llu "
                  "memo-hits=%llu misses=%llu stored=%llu%s\n",
                  result.truth_disk_hits > 0 ? "warm" : "cold",
                  static_cast<unsigned long long>(result.truth_loaded),
                  static_cast<unsigned long long>(result.truth_disk_hits),
                  static_cast<unsigned long long>(result.truth_memo_hits),
                  static_cast<unsigned long long>(result.truth_misses),
                  static_cast<unsigned long long>(result.truth_stored),
                  result.cache_saved ? "" : " (SAVE FAILED)");
    for (const auto& [rule, n] : result.rule_counts)
      std::printf("  rule %-22s %llu\n", rule.c_str(),
                  static_cast<unsigned long long>(n));
    if (config.collect_profile)
      std::printf("  profile: memo-hit-rate=%.3f peak-depth=%llu\n",
                  result.profile.memo_hit_rate(),
                  static_cast<unsigned long long>(result.profile.peak_depth));
    for (const campaign::ScenarioRecord& record : result.records) {
      if (record.verdict != campaign::Verdict::kDisagree) continue;
      std::printf("  DISAGREE #%llu rule=%s predicted=%s observed=%s\n"
                  "    scenario %s\n",
                  static_cast<unsigned long long>(record.index),
                  record.rule.c_str(), campaign::to_string(record.prediction),
                  campaign::to_string(record.outcome),
                  record.scenario_json.c_str());
      if (!record.fixture_path.empty())
        std::printf("    fixture  %s\n", record.fixture_path.c_str());
    }
  }

  // A reduction divergence outranks a mere disagreement: it means the
  // reduced search itself is unsound, so nothing else can be trusted.
  if (result.reduction_divergences > 0) {
    std::fprintf(stderr,
                 "wormsim_campaign: %llu reduction divergence(s) — the "
                 "reduced search contradicted the unreduced ground truth\n",
                 static_cast<unsigned long long>(result.reduction_divergences));
    return 3;
  }
  return result.disagree == 0 ? 0 : 1;
}
