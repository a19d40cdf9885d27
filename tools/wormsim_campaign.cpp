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
// Determinism: the JSONL bytes depend only on (--seed, --count, generator
// knobs, search limits) — never on --shards, --cache-file, or wall-clock —
// so reruns diff clean and shard/cache changes are pure speedups. A run
// killed mid-way resumes warm from its --cache-file. `--help` lists every
// flag; docs/campaign.md is the operator's manual.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/runner.hpp"
#include "cli.hpp"
#include "obs/run_report.hpp"

using namespace wormsim;

namespace {

/// Replays the "shrunk" (preferred) or "scenario" object of a disagreement
/// fixture and reports whether the disagreement still reproduces. Exit 0 =
/// fixed (now agrees), 1 = still disagrees, 2 = unusable fixture, 4 = the
/// search ran out of max_states or the memo budget, so it decided nothing.
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

  const campaign::Evaluation result =
      campaign::evaluate_scenario(*scenario, eval);
  std::printf("replay %s\n  scenario  %s\n  rule      %s\n  predicted %s\n"
              "  outcome   %s\n  verdict   %s\n",
              path.c_str(), scenario->describe().c_str(),
              result.classification.rule.c_str(),
              campaign::to_string(result.classification.prediction),
              campaign::to_string(result.outcome),
              campaign::to_string(result.verdict));
  if (result.verdict == campaign::Verdict::kDisagree) return 1;
  return result.outcome == campaign::SearchOutcome::kInconclusive ? 4 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using analysis::ReductionMode;
  using campaign::CycleBias;
  campaign::CampaignConfig config;
  std::string out_path = "campaign.jsonl";
  std::string replay_path;
  bool quiet = false;

  cli::Parser parser(
      "wormsim_campaign", "[flags]",
      "exit: 0 clean, 1 disagreements, 2 usage or an output file not\n"
      "      written (--out, BENCH report, --cache-file), 3 reduction\n"
      "      divergence, 4 --replay search undecided (state or memo budget)\n"
      "see docs/campaign.md for the full operator's manual\n");
  parser.integer("--seed", config.seed,
                 "campaign seed; scenario i is a pure function of (seed, i)");
  parser.integer("--count", config.count, "scenarios in the whole campaign");
  parser.choice("--bias", config.knobs.cycle_bias,
                {{"any", CycleBias::kAny},
                 {"force", CycleBias::kForce},
                 {"forbid", CycleBias::kForbid}},
                "random-algorithm generator bias: force or forbid CDG cycles");
  parser.fraction(
      "--synth-fraction", config.knobs.synthesized_fraction,
      "fraction of non-family scenarios drawn as synthesized routing");
  parser.integer("--synth-pairs", config.knobs.synth_max_pairs,
                 "maximum demanded pairs per synthesized scenario", 2);
  parser.integer("--max-states", config.eval.limits.max_states,
                 "per-search state budget (changes the truth fingerprint)");
  parser.choice("--reduction", config.eval.limits.reduction,
                {{"off", ReductionMode::kOff}, {"safe", ReductionMode::kSafe}},
                "ground-truth search reduction (DESIGN.md section 12)");
  parser.text("--fixture-dir", "DIR", config.fixture_dir,
              "where disagreement reproducer fixtures are written");
  parser.integer("--shards", config.shards,
                 "worker threads in this process; 0 = hardware concurrency");
  parser.text("--out", "FILE", out_path,
              "JSONL output, one record per scenario");
  parser.text("--cache-file", "FILE", config.cache_file,
              "persistent truth store: loaded before the run, appended to "
              "every second and rewritten sorted after it");
  parser.text("--replay", "FIXTURE", replay_path,
              "re-evaluate a disagreement fixture instead of a campaign");
  // Over-budget searches report inconclusive, so this one is folded into
  // the truth fingerprint.
  parser.integer("--memo-budget", config.eval.limits.memo_budget_bytes,
                 "StateTable byte ceiling; 0 = unlimited");
  parser.flag("--cross-check-reduction", config.eval.cross_check_reduction,
              "rerun each searched scenario under the other reduction mode");
  parser.flag("--probe-out-of-scope", config.eval.probe_out_of_scope,
              "also search out-of-scope scenarios (verdict stays skip)");
  parser.flag("--profile", config.collect_profile,
              "aggregate search profile counters into the summary");
  parser.flag("--no-shrink", config.shrink_disagreements,
              "skip shrinking disagreements");
  cli::status_flags(parser, config.status_file,
                    config.status_interval_seconds);
  parser.flag("--quiet", quiet, "suppress the stdout summary");
  parser.parse(argc, argv);

  if (!replay_path.empty()) return replay_fixture(replay_path, config.eval);

  const campaign::CampaignResult result = campaign::run_campaign(config);

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "wormsim_campaign: cannot write %s\n",
                 out_path.c_str());
    return 2;
  }
  result.write_jsonl(out);
  out.close();
  // Every output is attempted and each failure named; a lost output
  // exits 2 after the summary, unless a reduction divergence outranks it.
  bool outputs_written = true;
  const auto output_failed = [&](const std::string& what) {
    std::fprintf(stderr, "wormsim_campaign: cannot write %s\n", what.c_str());
    outputs_written = false;
  };
  if (!out) output_failed(out_path);

  const obs::RunReport report = result.report(config);
  if (!obs::write_report_file(report))
    output_failed(obs::report_path(report));
  if (!config.cache_file.empty() && !result.cache_saved)
    output_failed(config.cache_file);

  if (!quiet) {
    std::printf(
        "campaign seed=%llu count=%llu shards=%u\n",
        static_cast<unsigned long long>(config.seed),
        static_cast<unsigned long long>(config.count), result.shards_used);
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
                  "memo-hits=%llu parked=%llu misses=%llu stored=%llu%s\n",
                  result.truth_disk_hits > 0 ? "warm" : "cold",
                  static_cast<unsigned long long>(result.truth_loaded),
                  static_cast<unsigned long long>(result.truth_disk_hits),
                  static_cast<unsigned long long>(result.truth_memo_hits),
                  static_cast<unsigned long long>(result.truth_parked),
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
  if (!outputs_written) return 2;
  return result.disagree == 0 ? 0 : 1;
}
