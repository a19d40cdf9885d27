// Sharded campaign execution: generate -> classify -> search -> verdict.
//
// The runner draws `count` scenarios from a seeded ScenarioGenerator,
// classifies each against the paper's results, cross-checks in-scope
// predictions with the exhaustive reachability search (the operational
// ground truth), and records one verdict per scenario:
//
//   agree     — prediction and search outcome match
//   disagree  — the search refutes the prediction (a bug in the theorem
//               checkers, the classifier's scope, or the search itself);
//               the scenario is shrunk to a minimal reproducer and dumped
//               as a JSON fixture for regression replay
//   skip      — no validated prediction applies (out-of-scope), the search
//               hit its state budget, or a probe could not be built
//
// Determinism: scenario i is a pure function of (seed, i), every
// ground-truth search runs single-threaded, and records are emitted in
// index order — so the JSONL output is byte-identical across runs and
// shard counts, while shards scale wall-clock near-linearly.
//
// `shards` worker threads deal scenario indices dynamically. Ground truth
// is memoized in a TruthStore that `cache_file` persists across runs
// (docs/campaign.md documents the operator contract); its lookups are
// single-flight, so each truth key is searched once whatever the shard
// count. While the run is live, fresh records are appended to `cache_file`
// about once a second, so a killed run resumes warm.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/deadlock_search.hpp"
#include "campaign/classifier.hpp"
#include "campaign/scenario.hpp"
#include "campaign/truth_store.hpp"
#include "obs/run_report.hpp"

namespace wormsim::campaign {

enum class Verdict : std::uint8_t { kAgree, kDisagree, kSkip };

struct EvalOptions {
  /// Per-scenario search limits. run_campaign forces threads to 1 —
  /// parallelism belongs to the shard level so recorded states_explored
  /// stays deterministic; direct evaluate_scenario callers (replay,
  /// fixture regressions) get whatever they set. limits.reduction (kSafe by
  /// default) is honored and, when not kOff, folded into the truth-cache
  /// fingerprint, because reduced searches record different states counts.
  analysis::SearchLimits limits;
  /// Also run the search on out-of-scope scenarios (informational; the
  /// verdict stays kSkip). Off by default — it is where the CPU time goes.
  bool probe_out_of_scope = false;
  /// Mechanical soundness check for the reduction layer: every ground-truth
  /// search runs twice on a cache miss — once with limits.reduction (that
  /// run is what gets recorded and cached, so JSONL/cache bytes are
  /// identical to a plain campaign with the same mode) and once as a
  /// shadow under the other mode: kOff as the unreduced reference for
  /// kSafe, kSafe for kOff. A divergence is two CONFLICTING definite
  /// outcomes (deadlock vs no-deadlock); inconclusive-vs-definite is not
  /// one, since the reduced search legitimately decides instances the
  /// unreduced budget cannot.
  bool cross_check_reduction = false;
};

/// Everything the campaign learned about one scenario.
struct Evaluation {
  Classification classification;
  SearchOutcome outcome = SearchOutcome::kNotRun;
  Verdict verdict = Verdict::kSkip;
  /// Why a skip was skipped: the out-of-scope rule name, "search-limit",
  /// or "witness-gap".
  std::string skip_reason;
  std::uint64_t states = 0;  ///< states explored across all probes
  analysis::SearchProfile profile;  ///< merged over this scenario's searches
  /// cross_check_reduction only: the shadow re-run contradicted the
  /// recorded outcome (a reduction soundness bug).
  bool reduction_divergence = false;
};

/// Classifies and cross-checks one scenario (a campaign index, a replayed
/// fixture, a regression test); callers decide what verdict to demand.
/// Deterministic.
[[nodiscard]] Evaluation evaluate_scenario(const Scenario& scenario,
                                           const EvalOptions& options);

/// Seconds between the appends of freshly searched truth records to a
/// live campaign's cache_file.
inline constexpr int kCheckpointSeconds = 1;

struct CampaignConfig {
  std::uint64_t seed = 1;
  std::uint64_t count = 1000;
  /// Worker threads; scenarios are dealt dynamically. 0 means
  /// std::thread::hardware_concurrency().
  unsigned shards = 1;
  /// Persistent TruthStore path: loaded before the run (missing file = cold
  /// start), appended to while it runs (TruthStore::checkpoint, every
  /// kCheckpointSeconds) and atomically rewritten, sorted, after it. A
  /// killed run loses only the records since its last append. Empty
  /// disables persistence; the in-memory truth cache always runs.
  std::string cache_file;
  GeneratorKnobs knobs;
  EvalOptions eval;
  /// Aggregate SearchProfiles across all scenarios into the result.
  bool collect_profile = false;
  /// Shrink any disagreement and dump a JSON reproducer fixture.
  bool shrink_disagreements = true;
  /// Directory for reproducer fixtures; empty disables dumping.
  std::string fixture_dir = ".";
  /// Live heartbeat: path of an atomically rewritten JSON status file
  /// (docs/observability.md documents the schema). Empty (the default)
  /// disables sampling entirely — no sampler thread, no per-scenario
  /// branches taken. Purely observational: the JSONL records and the truth
  /// cache are byte-identical with and without a status file.
  std::string status_file;
  /// Heartbeat refresh interval in seconds (clamped to >= 10ms). A final
  /// snapshot with running=false and done == count is always written
  /// when the run finishes, whatever the interval.
  double status_interval_seconds = 1.0;
};

struct ScenarioRecord {
  std::uint64_t index = 0;
  std::uint64_t seed = 0;
  ScenarioKind kind = ScenarioKind::kFamily;
  std::string rule;
  Prediction prediction = Prediction::kOutOfScope;
  SearchOutcome outcome = SearchOutcome::kNotRun;
  Verdict verdict = Verdict::kSkip;
  std::string skip_reason;
  std::uint64_t states = 0;
  std::string scenario_json;  ///< replayable Scenario::to_json()
  std::string fixture_path;   ///< written reproducer, when disagreeing
  std::string shrunk_json;    ///< minimal reproducer scenario, when found

  /// One JSONL line. Contains no timing or shard information, so reruns
  /// with any shard count reproduce identical bytes.
  [[nodiscard]] std::string to_json() const;
};

struct CampaignResult {
  std::vector<ScenarioRecord> records;  ///< in index order
  std::uint64_t agree = 0;
  std::uint64_t disagree = 0;
  std::uint64_t skip = 0;
  std::uint64_t states_total = 0;
  std::map<std::string, std::uint64_t> rule_counts;
  std::map<std::string, std::uint64_t> skip_counts;
  double elapsed_seconds = 0;
  unsigned shards_used = 1;
  analysis::SearchProfile profile;  ///< merged when collect_profile
  // Truth-cache accounting, split so a warm rerun is distinguishable from
  // ordinary in-run memoization: disk hits come from the loaded cache_file,
  // memo hits from earlier scenarios of this same run.
  std::uint64_t truth_disk_hits = 0;
  std::uint64_t truth_memo_hits = 0;
  std::uint64_t truth_misses = 0;  ///< ground-truth searches actually run
  /// Scenarios parked because another shard was searching their key; each
  /// one later counts as a memo hit (so misses are distinct keys searched).
  std::uint64_t truth_parked = 0;
  std::uint64_t truth_loaded = 0;  ///< records accepted from cache_file
  std::uint64_t truth_stored = 0;  ///< records in the saved cache_file
  bool cache_saved = false;        ///< cache_file rewrite succeeded
  /// Scenarios whose shadow re-run contradicted the recorded outcome
  /// (eval.cross_check_reduction only; any nonzero value is a bug).
  std::uint64_t reduction_divergences = 0;

  /// Writes one JSONL line per scenario, in index order.
  void write_jsonl(std::ostream& out) const;

  /// Flat RunReport (BENCH_campaign.json shape) for the perf trajectory.
  [[nodiscard]] obs::RunReport report(const CampaignConfig& config) const;
};

/// Runs the campaign described by `config`. Thread-safe within itself; the
/// call blocks until all scenarios are evaluated.
[[nodiscard]] CampaignResult run_campaign(const CampaignConfig& config);

/// The truth-cache fingerprint a campaign with these options uses for its
/// RECORDED searches (threads forced to 1; the cross-check shadow arm is
/// never recorded). A TruthStore that stands in for the campaign's own must
/// be constructed with exactly this value.
[[nodiscard]] std::uint64_t campaign_truth_fingerprint(
    const EvalOptions& eval);

/// Extracts the scenario object embedded under `key` ("shrunk" or
/// "scenario") in a disagreement fixture's JSON text. nullopt when the key
/// is absent or the object does not parse as a Scenario.
[[nodiscard]] std::optional<Scenario> scenario_from_fixture(
    std::string_view text, std::string_view key);

const char* to_string(Verdict verdict);

}  // namespace wormsim::campaign
