#include "campaign/runner.hpp"

#include <atomic>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "analysis/search_status.hpp"
#include "campaign/shrink.hpp"
#include "core/analyzer.hpp"
#include "obs/json.hpp"
#include "obs/status.hpp"
#include "routing/routing.hpp"

namespace wormsim::campaign {

namespace {

// Stream salt for the acyclic-scenario probe messages; distinct from the
// scenario's routing/chord salts so the probe never correlates with the
// table it probes.
constexpr std::uint64_t kProbeSalt = 0x51c3a87e9d24b6f1ull;

/// Predicate evaluations one disagreement's shrink may spend.
constexpr std::size_t kShrinkBudget = 200;

void fold_search(Evaluation& eval, const analysis::DeadlockSearchResult& r) {
  eval.states += r.states_explored;
  eval.profile.merge_from(r.profile);
}

/// Probe messages for one elementary CDG cycle of a suffix-closed algorithm
/// (Theorem 2's proof shape): each cycle channel gets a message injected at
/// its tail, long enough to hold its in-cycle span. Returns an empty vector
/// on a witness gap (some cycle edge has no traceable witness).
std::vector<sim::MessageSpec> cycle_probe(
    const routing::RoutingAlgorithm& alg,
    const cdg::ChannelDependencyGraph& graph,
    const std::vector<ChannelId>& cycle) {
  std::unordered_set<std::uint32_t> in_cycle;
  for (const ChannelId c : cycle) in_cycle.insert(c.value());

  std::vector<sim::MessageSpec> specs;
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    const ChannelId c = cycle[i];
    const ChannelId next = cycle[(i + 1) % cycle.size()];
    const auto witnesses = graph.witnesses(c, next);
    if (witnesses.empty()) return {};
    sim::MessageSpec spec;
    spec.src = alg.net().channel(c).src;
    spec.dst = witnesses.front().dst;
    const auto path = routing::trace_path(alg, spec.src, spec.dst);
    if (!path) return {};
    std::uint32_t span = 0;
    for (const ChannelId pc : *path)
      if (in_cycle.contains(pc.value())) ++span;
    spec.length = std::max(1u, span);
    specs.push_back(spec);
  }
  return specs;
}

SearchOutcome outcome_of(const analysis::DeadlockSearchResult& r) {
  if (r.deadlock_found) return SearchOutcome::kDeadlock;
  return r.exhausted ? SearchOutcome::kNoDeadlock
                     : SearchOutcome::kInconclusive;
}

/// Ground truth for a family scenario: the bounded-but-thorough family probe
/// (base multiset plus long auxiliary copies).
SearchOutcome family_ground_truth(Evaluation& eval,
                                  const core::CyclicFamily& family,
                                  const analysis::SearchLimits& limits) {
  const auto probe = core::probe_family_deadlock(family, limits);
  eval.states += probe.total_states;
  eval.profile.merge_from(probe.search.profile);
  if (probe.deadlock_found) return SearchOutcome::kDeadlock;
  return probe.exhausted ? SearchOutcome::kNoDeadlock
                         : SearchOutcome::kInconclusive;
}

/// Ground truth for a cyclic random algorithm: search the first elementary
/// cycle with a complete probe (the classifier claims *every* cycle is
/// reachable, so one cycle decides). kNotRun when no cycle can be fully
/// probed (witness gap).
SearchOutcome cyclic_ground_truth(Evaluation& eval,
                                  const MaterializedScenario& live,
                                  const analysis::SearchLimits& limits) {
  const auto cycles = live.graph->elementary_cycles(kMaxCyclesProbed);
  for (const auto& cycle : cycles) {
    const auto specs = cycle_probe(*live.alg, *live.graph, cycle);
    if (specs.size() != cycle.size()) continue;
    const auto result = analysis::find_deadlock(
        *live.alg, specs, analysis::AdversaryModel::kSynchronous, limits);
    fold_search(eval, result);
    return outcome_of(result);
  }
  return SearchOutcome::kNotRun;
}

/// Ground truth for an acyclic random algorithm: verify the Dally–Seitz
/// numbering certificate, then search a seed-derived random message sample —
/// any deadlock refutes the classical theorem (or the CDG construction).
SearchOutcome acyclic_ground_truth(Evaluation& eval, const Scenario& scenario,
                                   const MaterializedScenario& live,
                                   const analysis::SearchLimits& limits) {
  const auto numbering = live.graph->topological_numbering();
  if (!numbering || !live.graph->verify_numbering(*numbering))
    return SearchOutcome::kDeadlock;  // certificate broken: treat as refuted

  util::Rng rng(scenario.seed ^ kProbeSalt);
  const std::size_t n = live.net->node_count();
  std::vector<sim::MessageSpec> specs;
  for (std::size_t i = 0;
       i < kAcyclicProbeMessages && specs.size() < n * n; ++i) {
    sim::MessageSpec spec;
    spec.src = NodeId{rng.below(n)};
    spec.dst = NodeId{rng.below(n)};
    if (spec.dst == spec.src)
      spec.dst = NodeId{(spec.src.index() + 1) % n};
    const auto path = routing::trace_path(*live.alg, spec.src, spec.dst);
    if (!path) continue;
    spec.length = static_cast<std::uint32_t>(rng.range(1, 3));
    specs.push_back(spec);
  }
  if (specs.empty()) return SearchOutcome::kNotRun;
  const auto result = analysis::find_deadlock(
      *live.alg, specs, analysis::AdversaryModel::kSynchronous, limits);
  fold_search(eval, result);
  return outcome_of(result);
}

/// Ground truth for a synthesized-routing scenario: re-verify the table's
/// Dally–Seitz numbering certificate, then search the full sampled demand
/// (one message per pair, seed-derived lengths). Any deadlock refutes the
/// existence certificate the classifier trusted. A demanded pair the table
/// cannot route also counts as refuted — the certificate promised coverage.
SearchOutcome synthesized_ground_truth(Evaluation& eval,
                                       const Scenario& scenario,
                                       const MaterializedScenario& live,
                                       const analysis::SearchLimits& limits) {
  WORMSIM_ASSERT(live.alg != nullptr && live.graph != nullptr);
  const auto numbering = live.graph->topological_numbering();
  if (!numbering || !live.graph->verify_numbering(*numbering))
    return SearchOutcome::kDeadlock;

  util::Rng rng(scenario.seed ^ kProbeSalt);
  std::vector<sim::MessageSpec> specs;
  for (const synth::NodePair& p : live.demand) {
    if (!routing::trace_path(*live.alg, p.src, p.dst))
      return SearchOutcome::kDeadlock;
    sim::MessageSpec spec;
    spec.src = p.src;
    spec.dst = p.dst;
    spec.length = static_cast<std::uint32_t>(rng.range(1, 3));
    specs.push_back(spec);
  }
  if (specs.empty()) return SearchOutcome::kNoDeadlock;
  const auto result = analysis::find_deadlock(
      *live.alg, specs, analysis::AdversaryModel::kSynchronous, limits);
  fold_search(eval, result);
  return outcome_of(result);
}

/// Ground truth is a pure function of (scenario.truth_key(), search limits,
/// probe sizes) — see TruthStore's header for the persistence story. Within
/// one run the store doubles as the in-memory memo table: families resample
/// the same structural instances constantly (most expensively the two
/// Section-6 generalized shapes, whose exhaustive probes dominate an
/// uncached run), and a warm cache_file short-circuits every search of a
/// rerun. Lookups claim their key, so each key is searched once at any
/// shard count: a scenario whose key another worker is searching is parked
/// and later replays that search's record as a memo hit. Cached replays
/// return bit-identical outcome/states, so JSONL bytes are unaffected; the
/// per-scenario SearchProfile is *not* cached — a hit contributes an empty
/// profile, so merged profiles count unique searches, not replays.
struct CacheCounters {
  std::atomic<std::uint64_t> disk_hits{0};
  std::atomic<std::uint64_t> memo_hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> parked{0};
};

/// cache_file's trail while the run is live. The worker that inserts a
/// freshly searched record calls inserted(); the first one to do so after
/// the shared deadline appends every record searched since the last append
/// (TruthStore::checkpoint) and moves the deadline kCheckpointSeconds on.
/// A killed run so loses only its last interval's records, and a warm run,
/// which inserts nothing, never appends.
class Checkpointer {
  using Clock = std::chrono::steady_clock;
  static constexpr Clock::rep kInterval =
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::seconds(kCheckpointSeconds))
          .count();

 public:
  Checkpointer(TruthStore& store, const std::string& path)
      : store_(store), path_(path) {}

  void inserted() {
    const Clock::rep now = Clock::now().time_since_epoch().count();
    Clock::rep due = due_.load();
    if (now < due || !due_.compare_exchange_strong(due, now + kInterval))
      return;
    // A failed append keeps its records pending for the next one.
    (void)store_.checkpoint(path_);
  }

 private:
  TruthStore& store_;
  const std::string& path_;
  std::atomic<Clock::rep> due_{Clock::now().time_since_epoch().count() +
                               kInterval};
};

/// Per-campaign-worker telemetry, allocated only when a status file was
/// requested. The worker marks the scenario it starts as `in_flight` and
/// folds each finished one into `status` under `mu`, and the sampler copies
/// it under the same lock; the board is the live window into the worker's
/// ground-truth searches. A run without a status file never allocates these
/// and the worker loop takes one null-check branch per scenario.
struct WorkerTelemetry {
  std::mutex mu;
  obs::WorkerStatus status;  ///< in_flight, plus totals of finished ones
  analysis::SearchStatusBoard board;
};

SearchOutcome expected_outcome(Prediction prediction) {
  switch (prediction) {
    case Prediction::kDeadlockReachable: return SearchOutcome::kDeadlock;
    case Prediction::kUnreachableCycle:
    case Prediction::kDeadlockFree: return SearchOutcome::kNoDeadlock;
    case Prediction::kOutOfScope: return SearchOutcome::kNotRun;
  }
  WORMSIM_UNREACHABLE("bad Prediction");
}

std::string fixture_json(const CampaignConfig& config,
                         const ScenarioRecord& record,
                         const Scenario& scenario,
                         const std::optional<Scenario>& shrunk) {
  std::ostringstream os;
  os << "{\n"
     << "  \"campaign_seed\": " << config.seed << ",\n"
     << "  \"index\": " << record.index << ",\n"
     << "  \"rule\": " << obs::json::quote(record.rule) << ",\n"
     << "  \"predicted\": \"" << to_string(record.prediction) << "\",\n"
     << "  \"observed\": \"" << to_string(record.outcome) << "\",\n"
     << "  \"scenario\": " << scenario.to_json();
  if (shrunk) os << ",\n  \"shrunk\": " << shrunk->to_json();
  os << "\n}\n";
  return os.str();
}

/// With `park` set, returns nullopt (and counts a park) instead of waiting
/// when another worker is searching the scenario's truth key; the caller
/// evaluates the scenario again later without `park`.
std::optional<Evaluation> evaluate_impl(const Scenario& scenario,
                                        const EvalOptions& options,
                                        TruthStore* cache,
                                        CacheCounters* counters,
                                        Checkpointer* checkpoint, bool park) {
  Evaluation eval;
  // A family is classified from its spec and built only when its truth key
  // misses; random and synthesized scenarios classify from their CDG or
  // existence certificate, so they are built up front.
  const bool family = scenario.kind == ScenarioKind::kFamily;
  MaterializedScenario live;
  if (!family) live = materialize(scenario);
  eval.classification = classify(scenario, live);

  analysis::SearchLimits limits = options.limits;
  limits.build_witness = false;

  const bool in_scope =
      eval.classification.prediction != Prediction::kOutOfScope;
  if (!in_scope && !options.probe_out_of_scope) {
    eval.verdict = Verdict::kSkip;
    eval.skip_reason = eval.classification.rule;
    return eval;
  }

  std::string key;
  bool cached = false;
  // Owns the key while this scenario searches it; released on return.
  std::optional<TruthStore::Claim> claim;
  if (cache != nullptr) {
    key = scenario.truth_key();
    claim.emplace(cache->claim(key, /*wait=*/!park));
    if (claim->kind() == TruthStore::Claim::Kind::kInFlight) {
      if (counters != nullptr)
        counters->parked.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    if (claim->kind() == TruthStore::Claim::Kind::kHit) {
      const TruthRecord& hit = claim->record();
      eval.outcome = hit.outcome;
      eval.states = hit.states;
      cached = true;
      if (counters != nullptr) {
        auto& counter =
            hit.from_disk ? counters->disk_hits : counters->memo_hits;
        counter.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  const auto ground_truth = [&](Evaluation& into,
                                const analysis::SearchLimits& with) {
    if (family) return family_ground_truth(into, *live.family, with);
    if (scenario.kind == ScenarioKind::kSynthesized) {
      // No table (obstruction / inconclusive certificate): nothing for the
      // search to cross-check.
      if (live.alg == nullptr) return SearchOutcome::kNotRun;
      return synthesized_ground_truth(into, scenario, live, with);
    }
    if (eval.classification.cdg_cyclic)
      return cyclic_ground_truth(into, live, with);
    return acyclic_ground_truth(into, scenario, live, with);
  };
  if (!cached) {
    if (counters != nullptr)
      counters->misses.fetch_add(1, std::memory_order_relaxed);
    if (family) live = materialize(scenario);
    eval.outcome = ground_truth(eval, limits);
    if (cache != nullptr)
      cache->insert(key, TruthRecord{eval.outcome, eval.states,
                                     /*from_disk=*/false});
    if (checkpoint != nullptr) checkpoint->inserted();
    if (options.cross_check_reduction) {
      // Shadow arm: same probes under the other reduction mode — the
      // unreduced reference for the default kSafe. Runs into a scratch
      // Evaluation so the recorded states/profile stay those of the
      // configured arm. Only conflicting DEFINITE outcomes diverge.
      analysis::SearchLimits reference = limits;
      reference.reduction = limits.reduction == analysis::ReductionMode::kOff
                                ? analysis::ReductionMode::kSafe
                                : analysis::ReductionMode::kOff;
      Evaluation shadow;
      shadow.classification = eval.classification;
      const SearchOutcome other = ground_truth(shadow, reference);
      const auto definite = [](SearchOutcome o) {
        return o == SearchOutcome::kDeadlock ||
               o == SearchOutcome::kNoDeadlock;
      };
      eval.reduction_divergence =
          definite(eval.outcome) && definite(other) && other != eval.outcome;
    }
  }

  if (!in_scope) {
    eval.verdict = Verdict::kSkip;
    eval.skip_reason = eval.classification.rule;
    return eval;
  }
  switch (eval.outcome) {
    case SearchOutcome::kInconclusive:
      eval.verdict = Verdict::kSkip;
      eval.skip_reason = "search-limit";
      return eval;
    case SearchOutcome::kNotRun:
      eval.verdict = Verdict::kSkip;
      eval.skip_reason = "witness-gap";
      return eval;
    case SearchOutcome::kDeadlock:
    case SearchOutcome::kNoDeadlock:
      break;
  }
  eval.verdict = eval.outcome == expected_outcome(eval.classification.prediction)
                     ? Verdict::kAgree
                     : Verdict::kDisagree;
  return eval;
}

}  // namespace

Evaluation evaluate_scenario(const Scenario& scenario,
                             const EvalOptions& options) {
  return *evaluate_impl(scenario, options, /*cache=*/nullptr,
                        /*counters=*/nullptr, /*checkpoint=*/nullptr,
                        /*park=*/false);
}

std::optional<Scenario> scenario_from_fixture(std::string_view text,
                                              std::string_view key) {
  const auto fixture = obs::json::parse(text);
  const obs::json::Value* scenario = fixture ? fixture->find(key) : nullptr;
  if (scenario == nullptr) return std::nullopt;
  return Scenario::from_json(*scenario);
}

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[20];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Appends ScenarioRecord::to_json()'s bytes to `out`.
void append_record(std::string& out, const ScenarioRecord& r) {
  out += "{\"index\":";
  append_u64(out, r.index);
  out += ",\"seed\":";
  append_u64(out, r.seed);
  out += ",\"kind\":\"";
  out += campaign::to_string(r.kind);
  out += "\",\"rule\":";
  obs::json::append_quoted(out, r.rule);
  out += ",\"prediction\":\"";
  out += campaign::to_string(r.prediction);
  out += "\",\"outcome\":\"";
  out += campaign::to_string(r.outcome);
  out += "\",\"verdict\":\"";
  out += campaign::to_string(r.verdict);
  out += '"';
  if (!r.skip_reason.empty()) {
    out += ",\"skip\":";
    obs::json::append_quoted(out, r.skip_reason);
  }
  out += ",\"states\":";
  append_u64(out, r.states);
  out += ",\"scenario\":";
  out += r.scenario_json;
  if (!r.shrunk_json.empty()) {
    out += ",\"shrunk\":";
    out += r.shrunk_json;
  }
  if (!r.fixture_path.empty()) {
    out += ",\"fixture\":";
    obs::json::append_quoted(out, r.fixture_path);
  }
  out += '}';
}

}  // namespace

std::string ScenarioRecord::to_json() const {
  std::string out;
  append_record(out, *this);
  return out;
}

void CampaignResult::write_jsonl(std::ostream& out) const {
  // One buffer of lines, written whenever it passes a block's size.
  constexpr std::size_t kBlockBytes = std::size_t{1} << 16;
  std::string block;
  block.reserve(kBlockBytes + 4096);
  const auto flush = [&] {
    out.write(block.data(), static_cast<std::streamsize>(block.size()));
    block.clear();
  };
  for (const ScenarioRecord& record : records) {
    append_record(block, record);
    block += '\n';
    if (block.size() >= kBlockBytes) flush();
  }
  flush();
}

obs::RunReport CampaignResult::report(const CampaignConfig& config) const {
  obs::RunReport r;
  r.name = "campaign";
  r.kind = "campaign";
  r.labels["seed"] = std::to_string(config.seed);
  r.labels["outcome"] = disagree == 0 ? "clean" : "disagreements";
  r.labels["truth_cache"] = config.cache_file.empty()
                                ? "off"
                                : (truth_disk_hits > 0 ? "warm" : "cold");
  r.labels["reduction"] = analysis::to_string(config.eval.limits.reduction);
  r.values["count"] = static_cast<double>(records.size());
  r.values["agree"] = static_cast<double>(agree);
  r.values["disagree"] = static_cast<double>(disagree);
  r.values["skip"] = static_cast<double>(skip);
  r.values["states_total"] = static_cast<double>(states_total);
  r.values["shards"] = static_cast<double>(shards_used);
  // Only meaningful when the per-scenario profiles were merged; gating on
  // that also keeps default reports (and their committed baselines) stable.
  if (config.collect_profile)
    r.values["search.table_peak_resident_bytes"] =
        static_cast<double>(profile.table_peak_resident_bytes);
  r.values["truth_cache.disk_hits"] = static_cast<double>(truth_disk_hits);
  r.values["truth_cache.memo_hits"] = static_cast<double>(truth_memo_hits);
  r.values["truth_cache.misses"] = static_cast<double>(truth_misses);
  r.values["truth_cache.loaded"] = static_cast<double>(truth_loaded);
  r.values["truth_cache.stored"] = static_cast<double>(truth_stored);
  r.values["truth_cache.parked"] = static_cast<double>(truth_parked);
  if (config.eval.cross_check_reduction)
    r.values["reduction_divergences"] =
        static_cast<double>(reduction_divergences);
  const std::uint64_t lookups = truth_disk_hits + truth_memo_hits + truth_misses;
  r.values["truth_cache.disk_hit_rate"] =
      lookups > 0 ? static_cast<double>(truth_disk_hits) /
                        static_cast<double>(lookups)
                  : 0;
  r.values["elapsed_seconds"] = elapsed_seconds;
  r.values["scenarios_per_second"] =
      elapsed_seconds > 0 ? static_cast<double>(records.size()) / elapsed_seconds
                          : 0;
  for (const auto& [rule, n] : rule_counts)
    r.values["rule." + rule] = static_cast<double>(n);
  for (const auto& [reason, n] : skip_counts)
    r.values["skip." + reason] = static_cast<double>(n);
  return r;
}

std::uint64_t campaign_truth_fingerprint(const EvalOptions& eval) {
  // The fingerprint digests the limits of the RECORDED searches, which run
  // the configured mode with or without the cross-check shadow arm.
  // threads is never folded (truth_fingerprint ignores it), so forcing it
  // to 1 here is documentation, not behaviour.
  analysis::SearchLimits recorded_limits = eval.limits;
  recorded_limits.threads = 1;
  return truth_fingerprint(recorded_limits);
}

CampaignResult run_campaign(const CampaignConfig& config) {
  const auto t0 = std::chrono::steady_clock::now();
  const ScenarioGenerator generator(config.seed, config.knobs);

  CampaignResult result;
  result.records.resize(config.count);

  unsigned shards = config.shards != 0
                        ? config.shards
                        : std::max(1u, std::thread::hardware_concurrency());
  if (config.count < shards)
    shards = static_cast<unsigned>(std::max<std::uint64_t>(1, config.count));
  result.shards_used = shards;

  std::vector<analysis::SearchProfile> profiles(
      config.collect_profile ? config.count : 0);

  // Parallelism lives at the shard level: recorded states_explored must be
  // deterministic, so every ground-truth search is single-threaded no
  // matter what the caller put in eval.limits.threads.
  EvalOptions eval_opts = config.eval;
  eval_opts.limits.threads = 1;
  TruthStore cache(campaign_truth_fingerprint(config.eval));
  std::optional<Checkpointer> checkpoint;
  if (!config.cache_file.empty()) {
    const TruthLoadStats loaded = cache.load(config.cache_file);
    result.truth_loaded = loaded.records;
    // Appends land after the last line, so a torn tail left by a killed
    // run would hide them from the next load: start from a clean file.
    if (loaded.dropped > 0) (void)cache.save(config.cache_file);
    checkpoint.emplace(cache, config.cache_file);
  }
  CacheCounters counters;
  std::atomic<std::uint64_t> divergences{0};

  // Live heartbeat plumbing (CampaignConfig::status_file). One telemetry
  // block per worker; the sampler thread aggregates them on its interval.
  // Everything here is observational — verdicts, JSONL bytes and the truth
  // cache are untouched by the status pointer riding along in the limits.
  std::vector<std::unique_ptr<WorkerTelemetry>> telemetry;
  if (!config.status_file.empty())
    for (unsigned t = 0; t < shards; ++t) {
      telemetry.push_back(std::make_unique<WorkerTelemetry>());
      telemetry.back()->status.in_flight = config.count;  // idle
    }

  std::atomic<std::uint64_t> next{0};
  const auto worker = [&](WorkerTelemetry* tele) {
    EvalOptions local_opts = eval_opts;
    if (tele != nullptr) local_opts.limits.status = &tele->board;
    // Evaluates and slots scenario i; false when it was parked.
    const auto evaluate = [&](std::uint64_t i, bool park) {
      if (tele != nullptr) {
        std::lock_guard<std::mutex> lock(tele->mu);
        tele->status.in_flight = i;
      }
      const Scenario scenario = generator.generate(i);
      const std::optional<Evaluation> evaluated = evaluate_impl(
          scenario, local_opts, &cache, &counters,
          checkpoint ? &*checkpoint : nullptr, park);
      if (!evaluated) return false;
      const Evaluation& eval = *evaluated;
      if (eval.reduction_divergence)
        divergences.fetch_add(1, std::memory_order_relaxed);
      ScenarioRecord& record = result.records[i];
      record.index = i;
      record.seed = scenario.seed;
      record.kind = scenario.kind;
      record.rule = eval.classification.rule;
      record.prediction = eval.classification.prediction;
      record.outcome = eval.outcome;
      record.verdict = eval.verdict;
      record.skip_reason = eval.skip_reason;
      record.states = eval.states;
      record.scenario_json = scenario.to_json();
      if (config.collect_profile) profiles[i] = eval.profile;
      if (tele != nullptr) {
        std::lock_guard<std::mutex> lock(tele->mu);
        obs::WorkerStatus& w = tele->status;
        w.in_flight = config.count;
        ++w.done;
        w.states += eval.states;
        switch (eval.verdict) {
          case Verdict::kAgree: ++w.agree; break;
          case Verdict::kDisagree: ++w.disagree; break;
          case Verdict::kSkip: ++w.skip; break;
        }
        w.profile.merge_from(eval.profile);
      }
      return true;
    };
    // Scenarios whose truth key another worker was searching wait until
    // the cursor runs dry; by then most of those searches have settled.
    std::vector<std::uint64_t> parked;
    for (;;) {
      const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= config.count) break;
      if (!evaluate(i, /*park=*/true)) parked.push_back(i);
    }
    for (const std::uint64_t i : parked) evaluate(i, /*park=*/false);
  };
  const auto telemetry_of = [&](unsigned t) -> WorkerTelemetry* {
    return telemetry.empty() ? nullptr : telemetry[t].get();
  };

  std::optional<obs::StatusSampler> sampler;
  if (!config.status_file.empty()) {
    sampler.emplace(
        config.status_file, config.status_interval_seconds,
        [&result, &config, &telemetry, &counters] {
          obs::StatusSnapshot snap;
          snap.kind = "campaign";
          snap.count = config.count;
          // `search` folds what the workers' engines are doing right now
          // (current or last search per board); `workers` carries each
          // worker's accumulated totals, which the progress counts sum.
          std::vector<analysis::SearchStatusBoard::Sample> samples;
          for (const auto& tele : telemetry) {
            samples.push_back(tele->board.sample());
            std::lock_guard<std::mutex> lock(tele->mu);
            snap.workers.push_back(tele->status);
          }
          snap.search = analysis::to_search_status(samples);
          for (const obs::WorkerStatus& w : snap.workers) {
            snap.done += w.done;
            snap.agree += w.agree;
            snap.disagree += w.disagree;
            snap.skip += w.skip;
            snap.states_total += w.states;
          }
          snap.truth_disk_hits =
              counters.disk_hits.load(std::memory_order_relaxed);
          snap.truth_memo_hits =
              counters.memo_hits.load(std::memory_order_relaxed);
          snap.truth_misses = counters.misses.load(std::memory_order_relaxed);
          const std::uint64_t lookups =
              snap.truth_disk_hits + snap.truth_memo_hits + snap.truth_misses;
          snap.truth_hit_rate =
              lookups > 0 ? static_cast<double>(snap.truth_disk_hits +
                                                snap.truth_memo_hits) /
                                static_cast<double>(lookups)
                          : 0;
          return snap;
        });
  }

  if (shards == 1) {
    worker(telemetry_of(0));
  } else {
    std::vector<std::thread> threads;
    threads.reserve(shards);
    for (unsigned t = 0; t < shards; ++t)
      threads.emplace_back([&worker, &telemetry_of, t] {
        worker(telemetry_of(t));
      });
    for (std::thread& t : threads) t.join();
  }
  // All workers have retired: the final heartbeat (running=false, done ==
  // count) lands before any post-processing, so monitors see "done" even
  // while shrinking/fixture dumping still runs.
  if (sampler) sampler->stop();

  // Aggregate serially in index order so merged histograms and counters are
  // independent of scheduling.
  for (const ScenarioRecord& record : result.records) {
    result.states_total += record.states;
    ++result.rule_counts[record.rule];
    switch (record.verdict) {
      case Verdict::kAgree: ++result.agree; break;
      case Verdict::kDisagree: ++result.disagree; break;
      case Verdict::kSkip:
        ++result.skip;
        ++result.skip_counts[record.skip_reason];
        break;
    }
  }
  for (const analysis::SearchProfile& profile : profiles)
    result.profile.merge_from(profile);

  // Disagreements: shrink to a minimal reproducer and dump a fixture.
  // Serial, so fixtures come out in index order.
  for (ScenarioRecord& record : result.records) {
    if (record.verdict != Verdict::kDisagree) continue;
    const Scenario scenario = generator.generate(record.index);
    std::optional<Scenario> shrunk;
    if (config.shrink_disagreements) {
      const std::string rule = record.rule;
      const auto still_disagrees = [&](const Scenario& candidate) {
        // No counters: shrink probes are diagnostics, not campaign lookups.
        // The workers have joined, so no key is in flight and none parks.
        const Evaluation eval =
            *evaluate_impl(candidate, eval_opts, &cache, /*counters=*/nullptr,
                           /*checkpoint=*/nullptr, /*park=*/false);
        return eval.verdict == Verdict::kDisagree &&
               eval.classification.rule == rule;
      };
      const ShrinkResult shrink =
          shrink_scenario(scenario, still_disagrees, kShrinkBudget);
      shrunk = shrink.minimal;
      record.shrunk_json = shrink.minimal.to_json();
    }
    if (!config.fixture_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(config.fixture_dir, ec);
      std::ostringstream name;
      name << "campaign_disagreement_s" << config.seed << "_i" << record.index
           << ".json";
      const std::filesystem::path path =
          std::filesystem::path(config.fixture_dir) / name.str();
      std::ofstream out(path);
      if (out) {
        out << fixture_json(config, record, scenario, shrunk);
        record.fixture_path = path.string();
      }
    }
  }

  result.truth_disk_hits = counters.disk_hits.load();
  result.truth_memo_hits = counters.memo_hits.load();
  result.truth_misses = counters.misses.load();
  result.truth_parked = counters.parked.load();
  result.reduction_divergences = divergences.load();
  if (!config.cache_file.empty()) {
    result.truth_stored = cache.size();
    result.cache_saved = cache.save(config.cache_file);
  }

  result.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

const char* to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::kAgree: return "agree";
    case Verdict::kDisagree: return "disagree";
    case Verdict::kSkip: return "skip";
  }
  WORMSIM_UNREACHABLE("bad Verdict");
}

}  // namespace wormsim::campaign
