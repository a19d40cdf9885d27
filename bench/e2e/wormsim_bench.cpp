// wormsim_bench — the end-to-end benchmark program (bench/e2e/README.md).
//
// Runs one workload through the library's public API, checks its outputs,
// and prints one JSON object on stdout:
//
//   wormsim_bench --workload campaign-cold|campaign-warm|campaign-light|
//                            search-deep|saturation
//                 [--seed N] [--seconds S] [--scale full|smoke]
//                 [--trace DIR] [--work-dir DIR]
//
// Every input (scenario stream, message sets, traffic) is generated from
// --seed inside this process. The measured phase repeats the workload's unit
// of work (one campaign, one pair of searches, one load sweep) until the next
// repetition would end past --seconds, and reports medians.
//
// Without --trace the run calls the library exactly as an operator's tool
// does and reports the end-to-end metrics. With --trace DIR it first takes
// the untraced median (for trace.overhead_frac), then repeats the workload
// through the benchmark's own loop with a span around every call into a layer,
// reports the per-layer metrics, and writes the spans to
// DIR/trace_<workload>.json in the Chrome trace-event format.
//
// Exit status: 0 every gate passed, 1 a gate failed (the JSON still prints,
// with "correct": false), 2 usage error.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/deadlock_search.hpp"
#include "analysis/search_status.hpp"
#include "campaign/classifier.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "campaign/truth_store.hpp"
#include "cdg/cdg.hpp"
#include "core/analyzer.hpp"
#include "core/cyclic_family.hpp"
#include "core/paper_networks.hpp"
#include "obs/json.hpp"
#include "routing/datacenter.hpp"
#include "sim/arbitration.hpp"
#include "sim/simulator.hpp"
#include "sim/workloads.hpp"
#include "topo/datacenter.hpp"

using namespace wormsim;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Runs `rep` (which returns its own wall seconds) at least `min_reps`
/// times, then again while the next repetition, predicted to take the
/// median so far, still ends within `seconds` of the first one's start,
/// up to `max_reps` times.
template <typename Rep>
std::vector<double> measure(double seconds, std::size_t min_reps,
                            std::size_t max_reps, Rep&& rep) {
  std::vector<double> walls;
  const auto start = Clock::now();
  do {
    walls.push_back(rep());
    std::fprintf(stderr, "repetition %zu: %.4f s\n", walls.size(),
                 walls.back());
  } while (walls.size() < max_reps &&
           (walls.size() < min_reps ||
            since(start) + median(walls) <= seconds));
  return walls;
}

/// Repetitions of a measured phase are bounded only by time; a traced phase
/// keeps at most this many, which bounds the spans held in memory.
constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();
constexpr std::size_t kTracedReps = 3;

/// Median wall time of five runs of `fn`: the set-up metric.
double median_setup(const std::function<void()>& fn) {
  std::vector<double> walls;
  for (int i = 0; i < 5; ++i) {
    const auto start = Clock::now();
    fn();
    walls.push_back(since(start));
    std::fprintf(stderr, "set-up %d: %.6f s\n", i + 1, walls.back());
  }
  return median(walls);
}

// -- result -----------------------------------------------------------------

class Report {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  void gate(const std::string& name, bool ok, const std::string& detail) {
    gates_.push_back({name, ok, detail});
    if (!ok) std::fprintf(stderr, "GATE FAILED %s: %s\n", name.c_str(),
                          detail.c_str());
  }
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  [[nodiscard]] bool correct() const {
    return std::all_of(gates_.begin(), gates_.end(),
                       [](const GateRow& g) { return g.ok; });
  }

  [[nodiscard]] std::string to_json(std::string_view workload,
                                    std::uint64_t seed, std::string_view scale,
                                    bool traced) const {
    std::ostringstream os;
    os << "{\"workload\":" << obs::json::quote(workload) << ",\"seed\":" << seed
       << ",\"scale\":" << obs::json::quote(scale)
       << ",\"traced\":" << (traced ? "true" : "false")
       << ",\"correct\":" << (correct() ? "true" : "false")
       << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
       << ",\"gates\":[";
    for (std::size_t i = 0; i < gates_.size(); ++i) {
      const GateRow& g = gates_[i];
      os << (i == 0 ? "" : ",") << "{\"name\":" << obs::json::quote(g.name)
         << ",\"ok\":" << (g.ok ? "true" : "false")
         << ",\"detail\":" << obs::json::quote(g.detail) << "}";
    }
    os << "],\"metrics\":{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const MetricRow& m = metrics_[i];
      char value[64];
      std::snprintf(value, sizeof value, "%.17g",
                    std::isfinite(m.value) ? m.value : 0.0);
      os << (i == 0 ? "" : ",") << obs::json::quote(m.name)
         << ":{\"value\":" << value << ",\"unit\":" << obs::json::quote(m.unit)
         << "}";
    }
    os << "}}";
    return os.str();
  }

 private:
  struct MetricRow {
    std::string name;
    double value;
    const char* unit;
  };
  struct GateRow {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<MetricRow> metrics_;
  std::vector<GateRow> gates_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// -- tracing ----------------------------------------------------------------

/// One traced interval. Spans nest strictly within a lane (one lane per
/// thread), so `parent` is the index of the enclosing span in the same lane.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;    ///< -1 for a root span
  std::int64_t scenario;  ///< campaign index, -1 outside campaigns
};

class Lane {
 public:
  explicit Lane(Clock::time_point epoch) : epoch_(epoch) {}

  std::int32_t begin(const char* name, std::int64_t scenario) {
    spans_.push_back({name, now_ns(), 0, open_, scenario});
    open_ = static_cast<std::int32_t>(spans_.size() - 1);
    return open_;
  }
  void end(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    open_ = spans_[static_cast<std::size_t>(id)].parent;
  }
  [[nodiscard]] double seconds(std::int32_t id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

/// RAII span: begins on construction, ends on destruction or end().
class Scoped {
 public:
  Scoped(Lane& lane, const char* name, std::int64_t scenario = -1)
      : lane_(lane), id_(lane.begin(name, scenario)) {}
  ~Scoped() { end(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  /// Ends the span now and returns its duration in seconds.
  double end() {
    if (!ended_) lane_.end(id_);
    ended_ = true;
    return lane_.seconds(id_);
  }

 private:
  Lane& lane_;
  std::int32_t id_;
  bool ended_ = false;
};

class Tracer {
 public:
  explicit Tracer(std::size_t lanes) {
    for (std::size_t i = 0; i < lanes; ++i) lanes_.emplace_back(epoch_);
  }
  Lane& lane(std::size_t i) { return lanes_[i]; }

  /// Summed duration of every span called `name`, in seconds.
  [[nodiscard]] double total(std::string_view name) const {
    std::int64_t ns = 0;
    for (const Lane& lane : lanes_)
      for (const Span& s : lane.spans())
        if (name == s.name) ns += s.end_ns - s.start_ns;
    return static_cast<double>(ns) * 1e-9;
  }

  /// Share of the summed duration of the root spans named `root` that is
  /// covered by their descendants `depth` levels down (1: children,
  /// 2: grandchildren, as in worker -> scenario -> layer call).
  [[nodiscard]] double coverage(std::string_view root, int depth) const {
    std::int64_t covered = 0, whole = 0;
    for (const Lane& lane : lanes_) {
      const auto& spans = lane.spans();
      for (std::size_t c = 0; c < spans.size(); ++c) {
        if (root == spans[c].name) whole += spans[c].end_ns - spans[c].start_ns;
        std::int32_t up = spans[c].parent;
        for (int d = 1; d < depth && up >= 0; ++d)
          up = spans[static_cast<std::size_t>(up)].parent;
        if (up >= 0 && root == spans[static_cast<std::size_t>(up)].name)
          covered += spans[c].end_ns - spans[c].start_ns;
      }
    }
    return whole > 0 ? static_cast<double>(covered) / static_cast<double>(whole)
                     : 0;
  }

  /// Chrome trace-event JSON ("X" complete events, one thread per lane).
  [[nodiscard]] bool write_chrome(const std::filesystem::path& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    bool first = true;
    for (std::size_t t = 0; t < lanes_.size(); ++t) {
      for (const Span& s : lanes_[t].spans()) {
        char line[256];
        std::snprintf(line, sizeof line,
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                      "\"parent\":%" PRId32 ",\"scenario\":%" PRId64 "}}",
                      first ? "" : ",", s.name, t,
                      static_cast<double>(s.start_ns) / 1e3,
                      static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                      s.parent, s.scenario);
        out << line;
        first = false;
      }
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Lane> lanes_;
};

// -- options ------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool smoke = false;
  std::string trace_dir;  ///< empty: untraced run
  std::filesystem::path work_dir = "bench_work";
};

/// Workload sizes. `full` is the benchmark; `smoke` runs every code path
/// in about a second per workload.
struct Scale {
  std::uint64_t campaign_count;            ///< scenarios per campaign
  std::size_t min_reps;                    ///< measured repetitions, at least
  std::size_t warm_min_reps;               ///< the same for warm reruns
  core::CyclicFamilySpec (*deep_probe)();  ///< the family search-deep probes
  int deep_copies;     ///< copies of the Figure-1 messages searched
  sim::Cycle horizon;  ///< saturation traffic is released in [0, horizon)
};

core::CyclicFamilySpec section6_k2() { return core::generalized_spec(2); }
core::CyclicFamilySpec fig3a() {
  return core::fig3_spec(core::Fig3Variant::kA);
}

constexpr Scale kFull{20'000, 3, 30, section6_k2, 2, 2000};
constexpr Scale kSmoke{200, 1, 3, fig3a, 1, 100};

constexpr unsigned kWorkers = 4;
constexpr std::array<double, 4> kLoads{0.002, 0.01, 0.04, 0.08};

// Seed-1, full-scale verdicts. They pin outcomes, not effort: state counts
// stay free to drop when the search gets smarter.
struct CampaignPin {
  std::uint64_t agree;
  std::uint64_t skip;
};
constexpr CampaignPin kColdPin{16'556, 3'444};
constexpr CampaignPin kLightPin{20'000, 0};

/// Simulated-time results of one saturation load point; identical on every
/// run of the same inputs, whatever the simulator's host speed.
struct SimPin {
  std::uint64_t offered;
  std::uint64_t run_cycles;
  double mean_latency;
};
constexpr std::array<SimPin, 4> kSatPins{{
    {4'148, 2'016, 6.0542430086788812},
    {20'681, 2'026, 7.147381654658866},
    {81'931, 2'393, 18.842904395161781},
    {163'934, 4'505, 21.777819122329717},
}};

const Scale& scale_of(const Options& o) { return o.smoke ? kSmoke : kFull; }

bool pinned(const Options& o) { return o.seed == 1 && !o.smoke; }

// -- campaigns --------------------------------------------------------------

enum class CampaignKind { kCold, kWarm, kLight };

campaign::CampaignConfig campaign_config(const Options& o, CampaignKind kind) {
  campaign::CampaignConfig config;
  config.seed = o.seed;
  config.shards = kWorkers;
  config.fixture_dir = o.work_dir.string();
  const Scale& s = scale_of(o);
  config.count = s.campaign_count;
  if (kind == CampaignKind::kLight) {
    config.knobs.family_fraction = 0;
    config.knobs.synthesized_fraction = 0;
  } else {
    config.cache_file = (o.work_dir / "truth.store").string();
    // With the Section-6 shape drawn, all four shards start the same k=2
    // probe before the first stores its outcome, and one seed's wall time
    // swings by 25% between runs; search-deep measures that probe instead.
    config.knobs.section6_fraction = 0;
    // Each Figure-3-shaped ring costs ~0.5 s of search; the smoke scale
    // leaves them out so that a whole smoke run takes a few seconds.
    if (o.smoke) config.knobs.theorem5_shape_bias = 0;
  }
  return config;
}

std::uint64_t search_limit_skips(const campaign::CampaignResult& r) {
  const auto it = r.skip_counts.find("search-limit");
  return it == r.skip_counts.end() ? 0 : it->second;
}

/// One untraced campaign as an operator runs it: run_campaign, then the
/// JSONL serialization. Returns the wall time; fills `jsonl`.
double timed_campaign(const campaign::CampaignConfig& config,
                      campaign::CampaignResult& result, std::string& jsonl) {
  const auto start = Clock::now();
  result = campaign::run_campaign(config);
  std::ostringstream os;
  result.write_jsonl(os);
  jsonl = os.str();
  return since(start);
}

/// The runner's verdict rule, applied to a record whose prediction, rule
/// and outcome are set, so that stored outcomes need no search. The
/// traced-vs-untraced JSONL gate checks that the two agree byte for byte.
void apply_verdict(campaign::ScenarioRecord& rec) {
  using campaign::SearchOutcome;
  rec.verdict = campaign::Verdict::kSkip;
  if (rec.prediction == campaign::Prediction::kOutOfScope) {
    rec.skip_reason = rec.rule;
  } else if (rec.outcome == SearchOutcome::kInconclusive) {
    rec.skip_reason = "search-limit";
  } else if (rec.outcome == SearchOutcome::kNotRun) {
    rec.skip_reason = "witness-gap";
  } else {
    const SearchOutcome expected =
        rec.prediction == campaign::Prediction::kDeadlockReachable
            ? SearchOutcome::kDeadlock
            : SearchOutcome::kNoDeadlock;
    rec.verdict = rec.outcome == expected ? campaign::Verdict::kAgree
                                          : campaign::Verdict::kDisagree;
  }
}

/// Per-worker accumulators of the traced campaign loop.
struct WorkerTally {
  analysis::SearchProfile profile;
  analysis::SearchStatusBoard board;
  std::vector<double> search_s;  ///< one entry per search actually run
  double family_probe_s = 0;
  std::uint64_t probe_searches = 0;
  std::uint64_t states = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

struct TracedCampaign {
  std::string jsonl;
  double wall_s = 0;
  double parallel_s = 0;  ///< from worker launch to join
  std::vector<std::unique_ptr<WorkerTally>> tallies;
  std::size_t stored = 0;  ///< store records inserted by this run
};

/// The campaign as the benchmark's own loop: generate -> materialize ->
/// classify -> truth lookup -> evaluate_scenario on a miss -> insert ->
/// to_json, dealt to kWorkers threads from one atomic index, with a span
/// around every call. Loads and saves `config.cache_file` like run_campaign.
TracedCampaign traced_campaign(const campaign::CampaignConfig& config,
                               Tracer& tracer) {
  TracedCampaign out;
  const auto start = Clock::now();
  Lane& main_lane = tracer.lane(kWorkers);
  campaign::TruthStore store(campaign::campaign_truth_fingerprint(config.eval));
  if (!config.cache_file.empty()) {
    Scoped span(main_lane, "campaign.truth_load");
    (void)store.load(config.cache_file);
  }
  const std::size_t loaded = store.size();
  const campaign::ScenarioGenerator generator(config.seed, config.knobs);
  std::vector<std::string> lines(config.count);

  for (unsigned w = 0; w < kWorkers; ++w)
    out.tallies.push_back(std::make_unique<WorkerTally>());
  std::atomic<std::uint64_t> next{0};
  const auto worker = [&](unsigned w) {
    Lane& lane = tracer.lane(w);
    WorkerTally& tally = *out.tallies[w];
    campaign::EvalOptions eval = config.eval;
    eval.limits.threads = 1;
    eval.limits.status = &tally.board;
    Scoped busy(lane, "campaign.worker");
    for (;;) {
      const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= config.count) return;
      const auto idx = static_cast<std::int64_t>(i);
      Scoped item(lane, "campaign.scenario", idx);
      // Declared first so that it closes last: the record span also covers
      // freeing the scenario's objects at the end of the iteration.
      std::optional<Scoped> record;

      Scoped gen(lane, "campaign.generate", idx);
      const campaign::Scenario scenario = generator.generate(i);
      gen.end();
      Scoped mat(lane, "campaign.materialize", idx);
      auto live = std::make_unique<campaign::MaterializedScenario>(
          campaign::materialize(scenario));
      double mat_s = mat.end();
      Scoped cls(lane, "campaign.classify", idx);
      const campaign::Classification classification =
          campaign::classify(scenario, *live);
      const double cls_s = cls.end();
      // Tearing the live network down is part of materializing it.
      Scoped release(lane, "campaign.materialize", idx);
      live.reset();
      mat_s += release.end();

      // Ground truth: none out of scope, else a stored or a fresh outcome.
      campaign::ScenarioRecord rec;
      rec.prediction = classification.prediction;
      if (rec.prediction != campaign::Prediction::kOutOfScope) {
        Scoped look(lane, "campaign.truth_lookup", idx);
        const std::string key = scenario.truth_key();
        const auto hit = store.lookup(key);
        look.end();
        if (hit) {
          ++tally.hits;
          rec.outcome = hit->outcome;
          rec.states = hit->states;
        } else {
          ++tally.misses;
          const bool family = scenario.kind == campaign::ScenarioKind::kFamily;
          const std::uint64_t searches_before =
              family ? tally.board.sample().searches_started : 0;
          Scoped evaluate(lane, "campaign.evaluate", idx);
          const campaign::Evaluation ev =
              campaign::evaluate_scenario(scenario, eval);
          // evaluate_scenario materializes and classifies again; what is
          // left is the search.
          const double search = evaluate.end() - mat_s - cls_s;
          tally.search_s.push_back(search);
          if (family) {
            tally.family_probe_s += search;
            tally.probe_searches +=
                tally.board.sample().searches_started - searches_before;
          }
          tally.profile.merge_from(ev.profile);
          tally.states += ev.states;
          rec.outcome = ev.outcome;
          rec.states = ev.states;
          Scoped insert(lane, "campaign.truth_insert", idx);
          store.insert(key, {ev.outcome, ev.states, /*from_disk=*/false});
        }
      }
      record.emplace(lane, "campaign.record", idx);
      rec.index = i;
      rec.seed = scenario.seed;
      rec.kind = scenario.kind;
      rec.rule = classification.rule;
      apply_verdict(rec);
      rec.scenario_json = scenario.to_json();
      lines[i] = rec.to_json();
    }
  };

  const auto parallel_start = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (unsigned w = 0; w < kWorkers; ++w) threads.emplace_back(worker, w);
  }
  out.parallel_s = since(parallel_start);
  out.stored = store.size() - loaded;

  for (const std::string& line : lines) {
    out.jsonl += line;
    out.jsonl += '\n';
  }
  if (!config.cache_file.empty()) {
    Scoped span(main_lane, "campaign.truth_save");
    (void)store.save(config.cache_file);
  }
  out.wall_s = since(start);
  return out;
}

/// Correctness of one campaign: no disagreement, no search cut short by its
/// state budget and, for seed 1 at full scale, the pinned verdict counts.
void campaign_gates(Report& report, const Options& o, const std::string& tag,
                    const campaign::CampaignResult& r, CampaignPin pin) {
  report.gate(tag + ".disagree", r.disagree == 0,
              std::to_string(r.disagree) + " disagreements");
  report.gate(tag + ".search_limit", search_limit_skips(r) == 0,
              std::to_string(search_limit_skips(r)) + " search-limit skips");
  if (pinned(o))
    report.gate(tag + ".pinned_verdicts",
                r.agree == pin.agree && r.skip == pin.skip,
                "agree " + std::to_string(r.agree) + " skip " +
                    std::to_string(r.skip) + ", pinned agree " +
                    std::to_string(pin.agree) + " skip " +
                    std::to_string(pin.skip));
}

/// Per-layer values of one traced run, by metric name.
using LayerMetrics = std::map<std::string, double>;

struct MetricSpec {
  std::string name;
  const char* unit;
};

std::string load_prefix(double load) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "sim.l%g.", load);
  return buf;
}

/// Every per-layer metric, in output order; all workloads report all of
/// them, 0 for a layer the workload never calls. Time in a layer is a share
/// of the traced run's busy time and speed is a rate, so no metric is a
/// duration that reads 0 wherever its layer is absent.
const std::vector<MetricSpec>& layer_metric_specs() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> v = {
        {"campaign.generate_share", "fraction"},
        {"campaign.materialize_share", "fraction"},
        {"campaign.classify_share", "fraction"},
        {"campaign.truth_share", "fraction"},
        {"campaign.search_share", "fraction"},
        {"campaign.record_share", "fraction"},
        {"campaign.jsonl_bytes", "bytes"},
        {"campaign.truth_hits", "count"},
        {"campaign.truth_misses", "count"},
        {"campaign.truth_dup_searches", "count"},
        {"campaign.searches_per_s", "1/s"},
        {"campaign.shard_busy_frac", "fraction"},
        {"campaign.tail_share", "fraction"},
        {"analysis.states", "count"},
        {"analysis.states_per_s", "1/s"},
        {"analysis.memo_hit_rate", "fraction"},
        {"analysis.branch_mean", "count"},
        {"analysis.peak_depth", "count"},
        {"analysis.table_peak_bytes", "bytes"},
        {"analysis.steals", "count"},
        {"analysis.steal_attempts", "count"},
        {"analysis.splits", "count"},
        {"analysis.busy_frac", "fraction"},
        {"analysis.max_worker_share", "fraction"},
        {"analysis.speedup_t4", "x"},
        {"core.probe_share", "fraction"},
        {"core.probe_searches", "count"},
        {"sim.workload_gen_share", "fraction"},
        {"sim.run_share", "fraction"},
    };
    for (const double load : kLoads) {
      const std::string pre = load_prefix(load);
      v.push_back({pre + "events_per_s", "1/s"});
      v.push_back({pre + "events_fired", "count"});
      v.push_back({pre + "events_per_msg", "count"});
      v.push_back({pre + "queue_peak", "count"});
      v.push_back({pre + "accepted_flits_per_cycle", "flits/cycle"});
      v.push_back({pre + "mean_latency_cycles", "cycles"});
      v.push_back({pre + "run_cycles", "cycles"});
    }
    v.push_back({"trace.coverage", "fraction"});
    v.push_back({"trace.overhead_frac", "fraction"});
    return v;
  }();
  return specs;
}

void emit_layer_metrics(Report& report, const LayerMetrics& layer) {
  for (const MetricSpec& spec : layer_metric_specs()) {
    const auto it = layer.find(spec.name);
    report.metric(spec.name, it == layer.end() ? 0 : it->second, spec.unit);
  }
}

/// The end-to-end metrics of an untraced run.
void end_to_end_metrics(Report& report, double setup_s, double work_per_s) {
  report.metric("setup_s", setup_s, "s");
  report.metric("work_per_s", work_per_s, "1/s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Closes a traced run: the coverage gate, every per-layer metric, and the
/// Chrome trace file.
void finish_trace(Report& report, const Options& o, const Tracer& tracer,
                  LayerMetrics& layer, double overhead_frac) {
  layer["trace.overhead_frac"] = overhead_frac;
  const double coverage = layer["trace.coverage"];
  report.gate("trace_coverage", coverage >= 0.95,
              "layer spans cover " + std::to_string(coverage) +
                  " of the traced busy time");
  emit_layer_metrics(report, layer);
  std::filesystem::create_directories(o.trace_dir);
  const auto path =
      std::filesystem::path(o.trace_dir) / ("trace_" + o.workload + ".json");
  report.gate("trace_written", tracer.write_chrome(path), path.string());
}

void profile_metrics(LayerMetrics& layer, const analysis::SearchProfile& p,
                     std::uint64_t states, double search_s) {
  layer["analysis.states"] = static_cast<double>(states);
  layer["analysis.states_per_s"] =
      ratio(static_cast<double>(states), search_s);
  layer["analysis.memo_hit_rate"] = p.memo_hit_rate();
  layer["analysis.branch_mean"] = p.branch_factor.mean();
  layer["analysis.peak_depth"] = static_cast<double>(p.peak_depth);
  layer["analysis.table_peak_bytes"] =
      static_cast<double>(p.table_peak_resident_bytes);
  layer["analysis.steals"] = static_cast<double>(p.steals);
  layer["analysis.steal_attempts"] = static_cast<double>(p.steal_attempts);
  layer["analysis.splits"] = static_cast<double>(p.splits);
  layer["analysis.busy_frac"] =
      ratio(static_cast<double>(p.busy_ns),
            static_cast<double>(p.busy_ns + p.idle_ns));
}

/// Traced campaign metrics over `runs` traced repetitions. Shares are of
/// the summed busy time: every worker's loop plus the truth-store load and
/// save around it.
void campaign_layer_metrics(LayerMetrics& layer, const Tracer& tracer,
                            const std::vector<TracedCampaign>& runs) {
  const auto n = static_cast<double>(runs.size());
  const double store_io = tracer.total("campaign.truth_load") +
                          tracer.total("campaign.truth_save");
  const double busy = tracer.total("campaign.worker") + store_io;
  for (const auto& [metric, span] :
       std::initializer_list<std::pair<const char*, const char*>>{
           {"campaign.generate_share", "campaign.generate"},
           {"campaign.materialize_share", "campaign.materialize"},
           {"campaign.classify_share", "campaign.classify"},
           {"campaign.record_share", "campaign.record"}})
    layer[metric] = ratio(tracer.total(span), busy);
  layer["campaign.truth_share"] =
      ratio(tracer.total("campaign.truth_lookup") +
                tracer.total("campaign.truth_insert") + store_io,
            busy);

  analysis::SearchProfile profile;
  double jsonl = 0, hits = 0, misses = 0, dup = 0, states = 0, search = 0,
         family = 0, probes = 0, parallel = 0, tail = 0;
  for (const TracedCampaign& run : runs) {
    jsonl += static_cast<double>(run.jsonl.size());
    double run_misses = 0, run_max = 0;
    for (const auto& t : run.tallies) {
      profile.merge_from(t->profile);
      for (const double s : t->search_s) {
        search += s;
        run_max = std::max(run_max, s);
      }
      hits += static_cast<double>(t->hits);
      run_misses += static_cast<double>(t->misses);
      states += static_cast<double>(t->states);
      family += t->family_probe_s;
      probes += static_cast<double>(t->probe_searches);
    }
    misses += run_misses;
    dup += run_misses - static_cast<double>(run.stored);
    parallel += run.parallel_s;
    tail += ratio(run_max, run.wall_s);
  }

  layer["campaign.search_share"] = ratio(search, busy);
  layer["campaign.jsonl_bytes"] = jsonl / n;
  layer["campaign.truth_hits"] = hits / n;
  layer["campaign.truth_misses"] = misses / n;
  layer["campaign.truth_dup_searches"] = dup / n;
  layer["campaign.searches_per_s"] = ratio(misses, search);
  layer["campaign.shard_busy_frac"] =
      ratio(tracer.total("campaign.worker"), kWorkers * parallel);
  layer["campaign.tail_share"] = tail / n;
  profile_metrics(layer, profile, static_cast<std::uint64_t>(states / n),
                  search / n);
  layer["core.probe_share"] = ratio(family, busy);
  layer["core.probe_searches"] = probes / n;
  layer["trace.coverage"] = tracer.coverage("campaign.worker", 2);
}

/// Campaign seed of measured repetition `rep`. Repetition 0 runs --seed
/// itself; each later one draws an independent stream, so that a run's
/// median does not hinge on which rare expensive ring one stream contains.
/// The warm workload reruns one stream, the one its truth store holds.
std::uint64_t rep_seed(std::uint64_t seed, std::size_t rep) {
  return seed + rep * 0x9e3779b97f4a7c15ull;
}

void run_campaign_workload(const Options& o, CampaignKind kind,
                           Report& report) {
  const Scale& s = scale_of(o);
  const bool warm = kind == CampaignKind::kWarm;
  campaign::CampaignConfig config = campaign_config(o, kind);
  const auto config_for = [&](std::size_t rep) {
    config.seed = warm ? o.seed : rep_seed(o.seed, rep);
    if (!warm) std::filesystem::remove(config.cache_file);
    return config;
  };
  const CampaignPin pin = kind == CampaignKind::kLight ? kLightPin : kColdPin;

  // Set-up: the run directory and the first repetition's scenario stream,
  // generated from the seed. The warm workload's set-up also runs the cold
  // campaign that fills the truth store it reuses.
  std::vector<std::string> stream;
  double setup_s = median_setup([&] {
    std::filesystem::remove_all(o.work_dir);
    std::filesystem::create_directories(o.work_dir);
    const campaign::ScenarioGenerator generator(o.seed, config.knobs);
    stream.clear();
    for (std::uint64_t i = 0; i < config.count; ++i)
      stream.push_back(generator.generate(i).to_json());
  });
  std::string cold_jsonl;
  if (warm) {
    campaign::CampaignResult cold;
    setup_s += timed_campaign(config_for(0), cold, cold_jsonl);
    campaign_gates(report, o, "setup_cold", cold, pin);
    report.gate("setup_cold.store_saved", cold.cache_saved,
                config.cache_file);
  }

  // Measured phase: run_campaign as an operator runs it.
  std::vector<double> rates;
  std::vector<std::uint64_t> hashes;
  bool streams_match = true, all_warm = true, later_clean = true;
  const std::size_t min_reps = warm ? s.warm_min_reps : s.min_reps;
  const std::vector<double> walls =
      measure(o.seconds, min_reps, kUnbounded, [&] {
        campaign::CampaignResult result;
        std::string jsonl;
        const double wall =
            timed_campaign(config_for(rates.size()), result, jsonl);
        report.count(config.count,
                     result.disagree + search_limit_skips(result));
        if (rates.empty()) {
          campaign_gates(report, o, "campaign", result, pin);
          for (std::size_t i = 0; i < stream.size(); ++i)
            streams_match = streams_match &&
                            result.records[i].scenario_json == stream[i];
        } else {
          later_clean = later_clean && result.disagree == 0 &&
                        search_limit_skips(result) == 0;
        }
        if (warm)
          all_warm = all_warm && result.truth_misses == 0 &&
                     jsonl == cold_jsonl;
        rates.push_back(static_cast<double>(config.count) / wall);
        hashes.push_back(fnv1a(jsonl));
        return wall;
      });
  report.gate("scenario_stream", streams_match,
              "records carry the stream generated at set-up");
  report.gate("later_repetitions", later_clean,
              "no disagreement or search-limit skip after the first run");
  if (warm)
    report.gate("warm_equals_cold", all_warm,
                "every rerun: 0 searches, JSONL bytes == cold JSONL bytes");

  if (o.trace_dir.empty()) {
    end_to_end_metrics(report, setup_s, median(rates));
    return;
  }

  // Traced phase: the same repetitions through the benchmark's own loop.
  Tracer tracer(kWorkers + 1);
  std::vector<TracedCampaign> runs;
  bool traced_match = true;
  const std::vector<double> traced_walls =
      measure(o.seconds, 1, kTracedReps, [&] {
        const std::size_t rep = runs.size();
        runs.push_back(traced_campaign(config_for(rep), tracer));
        if (rep < hashes.size())
          traced_match =
              traced_match && fnv1a(runs.back().jsonl) == hashes[rep];
        return runs.back().wall_s;
      });
  report.gate("traced_jsonl", traced_match,
              "traced loop JSONL == run_campaign JSONL, stream by stream");
  LayerMetrics layer;
  campaign_layer_metrics(layer, tracer, runs);
  finish_trace(report, o, tracer, layer,
               median(traced_walls) / median(walls) - 1);
}

// -- search-deep ------------------------------------------------------------

struct DeepInputs {
  std::unique_ptr<core::CyclicFamily> probe_family;
  std::unique_ptr<core::CyclicFamily> fig1;
  std::vector<sim::MessageSpec> fig1_specs;  ///< copies of Fig. 1
};

DeepInputs deep_inputs(const Scale& s) {
  DeepInputs in;
  in.probe_family = std::make_unique<core::CyclicFamily>(s.deep_probe());
  in.fig1 = std::make_unique<core::CyclicFamily>(core::fig1_spec());
  const auto base = in.fig1->message_specs();
  for (int c = 0; c < s.deep_copies; ++c)
    in.fig1_specs.insert(in.fig1_specs.end(), base.begin(), base.end());
  return in;
}

struct DeepRep {
  core::FamilyProbeResult probe;
  analysis::DeadlockSearchResult fig1;
  double probe_s = 0;
  double fig1_s = 0;
  std::uint64_t probe_searches = 0;
  [[nodiscard]] std::uint64_t states() const {
    return probe.total_states + fig1.states_explored;
  }
  [[nodiscard]] double wall() const { return probe_s + fig1_s; }
};

DeepRep deep_rep(const DeepInputs& in, unsigned threads, Lane* lane) {
  analysis::SearchLimits limits;
  limits.threads = threads;
  analysis::SearchStatusBoard board;
  limits.status = &board;
  DeepRep rep;
  {
    std::optional<Scoped> span;
    if (lane != nullptr) span.emplace(*lane, "core.family_probe");
    const auto start = Clock::now();
    rep.probe = core::probe_family_deadlock(*in.probe_family, limits);
    rep.probe_s = since(start);
  }
  rep.probe_searches = board.sample().searches_started;
  {
    std::optional<Scoped> span;
    if (lane != nullptr) span.emplace(*lane, "analysis.find_deadlock");
    const auto start = Clock::now();
    rep.fig1 = analysis::find_deadlock(in.fig1->algorithm(), in.fig1_specs,
                                       analysis::AdversaryModel::kSynchronous,
                                       limits);
    rep.fig1_s = since(start);
  }
  return rep;
}

void run_search_deep(const Options& o, Report& report) {
  const Scale& s = scale_of(o);
  // Set-up: build both instances and confirm that their channel
  // dependency graphs are cyclic, i.e. that freedom from deadlock is not
  // already settled by Dally and Seitz's acyclicity theorem.
  DeepInputs in;
  bool cyclic = true;
  const double setup_s = median_setup([&] {
    in = deep_inputs(s);
    for (const core::CyclicFamily* f : {in.probe_family.get(), in.fig1.get()})
      cyclic = cyclic &&
               !cdg::ChannelDependencyGraph::build(f->algorithm()).acyclic();
  });
  report.gate("cdg_cyclic", cyclic, "both instances have a cyclic CDG");

  std::vector<double> rates;
  std::vector<DeepRep> reps;
  const std::vector<double> walls =
      measure(o.seconds, s.min_reps, kUnbounded, [&] {
        reps.push_back(deep_rep(in, kWorkers, nullptr));
        rates.push_back(static_cast<double>(reps.back().states()) /
                        reps.back().wall());
        return reps.back().wall();
      });
  const auto failed = [](bool deadlock, bool exhausted) -> std::uint64_t {
    return deadlock || !exhausted ? 1 : 0;
  };
  bool verdicts = true, same_states = true;
  for (const DeepRep& r : reps) {
    const std::uint64_t failures =
        failed(r.probe.deadlock_found, r.probe.exhausted) +
        failed(r.fig1.deadlock_found, r.fig1.exhausted);
    verdicts = verdicts && failures == 0;
    same_states = same_states && r.states() == reps.front().states();
    report.count(2, failures);
  }
  report.gate("no_deadlock_exhausted", verdicts,
              "every search exhausted its space without a deadlock");
  report.gate("states_deterministic", same_states,
              std::to_string(reps.front().states()) +
                  " states on every run at threads=4");

  if (o.trace_dir.empty()) {
    end_to_end_metrics(report, setup_s, median(rates));
    return;
  }

  Tracer tracer(1);
  Lane& lane = tracer.lane(0);
  std::vector<DeepRep> traced;
  const std::vector<double> traced_walls =
      measure(o.seconds, 1, kTracedReps, [&] {
        Scoped root(lane, "search-deep.rep");
        traced.push_back(deep_rep(in, kWorkers, &lane));
        return root.end();
      });
  const DeepRep serial = deep_rep(in, 1, nullptr);
  report.gate("states_t4_eq_t1", serial.states() == reps.front().states(),
              std::to_string(serial.states()) + " states at threads=1");

  const DeepRep& t = traced.front();
  analysis::SearchProfile profile = t.probe.search.profile;
  profile.merge_from(t.fig1.profile);
  std::uint64_t total = 0, peak = 0;
  for (const auto* r : {&t.probe.search, &t.fig1})
    for (const analysis::SearchProfile& shard : r->worker_profiles) {
      total += shard.memo_misses;
      peak = std::max(peak, shard.memo_misses);
    }
  LayerMetrics layer;
  profile_metrics(layer, profile, t.states(), t.wall());
  layer["analysis.max_worker_share"] =
      ratio(static_cast<double>(peak), static_cast<double>(total));
  layer["analysis.speedup_t4"] = serial.wall() / t.wall();
  layer["core.probe_share"] = ratio(tracer.total("core.family_probe"),
                                      tracer.total("search-deep.rep"));
  layer["core.probe_searches"] = static_cast<double>(t.probe_searches);
  layer["trace.coverage"] = tracer.coverage("search-deep.rep", 1);
  finish_trace(report, o, tracer, layer,
               median(traced_walls) / median(walls) - 1);
}

// -- saturation -------------------------------------------------------------

constexpr int kFatTreeK = 16;
constexpr sim::Cycle kDrain = 50'000;

struct SatPoint {
  sim::WorkloadStats stats;
  sim::RunResult result;
  sim::EventCoreStats events;
  double run_s = 0;
};

sim::WorkloadConfig traffic(const Options& o, double load) {
  sim::WorkloadConfig w;
  w.pattern = sim::TrafficPattern::kUniformRandom;
  w.injection_rate = load;
  w.message_length = 8;
  w.horizon = scale_of(o).horizon;
  w.seed = o.seed;
  return w;
}

/// One load point through the event core: build, inject, run(), summarize.
SatPoint simulate(const routing::RoutingAlgorithm& alg,
                  std::span<const sim::MessageSpec> specs, sim::Cycle horizon,
                  Lane* lane) {
  SatPoint p;
  sim::FifoArbitration policy;
  sim::SimConfig config;
  config.core = sim::SimCore::kEvent;
  config.buffer_depth = 2;
  config.max_cycles = horizon + kDrain;
  std::optional<Scoped> span;
  if (lane != nullptr) span.emplace(*lane, "sim.build");
  sim::WormholeSimulator simulator(alg, config, policy);
  for (const sim::MessageSpec& spec : specs) simulator.add_message(spec);
  span.reset();
  if (lane != nullptr) span.emplace(*lane, "sim.run");
  const auto start = Clock::now();
  p.result = simulator.run();
  p.run_s = since(start);
  span.reset();
  if (lane != nullptr) span.emplace(*lane, "sim.summarize");
  p.stats = sim::summarize_workload(simulator, p.result.cycles);
  p.events = simulator.event_stats();
  return p;
}

void run_saturation(const Options& o, Report& report) {
  const Scale& s = scale_of(o);
  // Set-up: the k=16 fat-tree (1024 hosts) and its D-mod-k up/down routing.
  std::unique_ptr<topo::FatTree> tree;
  std::unique_ptr<routing::FatTreeUpDown> alg;
  const double setup_s = median_setup([&] {
    alg.reset();
    tree = std::make_unique<topo::FatTree>(kFatTreeK);
    alg = std::make_unique<routing::FatTreeUpDown>(*tree);
  });

  // One sweep, as wormsim_saturation runs it: per load point, generate the
  // open-loop traffic, then simulate it.
  std::vector<double> rates;
  std::vector<std::vector<SatPoint>> sweeps;
  const auto sweep = [&](Lane* lane) {
    std::vector<SatPoint> points;
    for (const double load : kLoads) {
      std::optional<Scoped> gen;
      if (lane != nullptr) gen.emplace(*lane, "sim.workload_gen");
      const std::vector<sim::MessageSpec> specs =
          sim::generate_workload(tree->hosts(), traffic(o, load));
      gen.reset();
      points.push_back(simulate(*alg, specs, s.horizon, lane));
    }
    return points;
  };
  const std::vector<double> walls =
      measure(o.seconds, s.min_reps, kUnbounded, [&] {
        const auto start = Clock::now();
        sweeps.push_back(sweep(nullptr));
        const double wall = since(start);
        double delivered = 0;
        for (const SatPoint& p : sweeps.back())
          delivered += static_cast<double>(p.stats.delivered);
        rates.push_back(delivered / wall);
        return wall;
      });

  bool drained = true, repeatable = true, pins_ok = true;
  std::string pin_detail;
  for (const auto& points : sweeps) {
    for (std::size_t l = 0; l < points.size(); ++l) {
      const SatPoint& p = points[l];
      const SatPoint& ref = sweeps.front()[l];
      drained = drained && p.stats.delivered == p.stats.offered &&
                p.result.outcome == sim::RunOutcome::kAllConsumed;
      repeatable = repeatable && p.result.cycles == ref.result.cycles &&
                   p.stats.mean_latency == ref.stats.mean_latency &&
                   p.stats.throughput_flits_per_cycle ==
                       ref.stats.throughput_flits_per_cycle &&
                   p.events.events_fired == ref.events.events_fired;
      report.count(p.stats.offered, p.stats.offered - p.stats.delivered);
    }
  }
  for (std::size_t l = 0; l < kLoads.size(); ++l) {
    const SatPoint& p = sweeps.front()[l];
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s{%zu, %" PRIu64 ", %.17g}",
                  l == 0 ? "" : ", ", p.stats.offered, p.result.cycles,
                  p.stats.mean_latency);
    pin_detail += buf;
    pins_ok = pins_ok && p.stats.offered == kSatPins[l].offered &&
              p.result.cycles == kSatPins[l].run_cycles &&
              std::abs(p.stats.mean_latency - kSatPins[l].mean_latency) <=
                  1e-9 * kSatPins[l].mean_latency;
  }
  report.gate("delivered_fraction_1", drained,
              "every offered message delivered and drained");
  report.gate("simulated_repeatable", repeatable,
              "simulated-time results identical on every run");
  if (pinned(o))
    report.gate("pinned_simulated", pins_ok,
                "{offered, run_cycles, mean_latency}: " + pin_detail);

  if (o.trace_dir.empty()) {
    end_to_end_metrics(report, setup_s, median(rates));
    return;
  }

  Tracer tracer(1);
  Lane& lane = tracer.lane(0);
  std::vector<std::vector<SatPoint>> traced;
  const std::vector<double> traced_walls =
      measure(o.seconds, 1, kTracedReps, [&] {
        Scoped root(lane, "saturation.sweep");
        traced.push_back(sweep(&lane));
        return root.end();
      });
  LayerMetrics layer;
  const double sweep_s = tracer.total("saturation.sweep");
  layer["sim.workload_gen_share"] =
      ratio(tracer.total("sim.workload_gen"), sweep_s);
  layer["sim.run_share"] = ratio(tracer.total("sim.run"), sweep_s);
  for (std::size_t l = 0; l < kLoads.size(); ++l) {
    const std::string pre = load_prefix(kLoads[l]);
    std::vector<double> run_s;
    for (const auto& points : traced) run_s.push_back(points[l].run_s);
    const SatPoint& p = traced.front()[l];
    const auto fired = static_cast<double>(p.events.events_fired);
    layer[pre + "events_per_s"] = ratio(fired, median(run_s));
    layer[pre + "events_fired"] = fired;
    layer[pre + "events_per_msg"] =
        ratio(fired, static_cast<double>(p.stats.delivered));
    layer[pre + "queue_peak"] = static_cast<double>(p.events.queue_peak);
    layer[pre + "accepted_flits_per_cycle"] =
        p.stats.throughput_flits_per_cycle;
    layer[pre + "mean_latency_cycles"] = p.stats.mean_latency;
    layer[pre + "run_cycles"] = static_cast<double>(p.result.cycles);
  }
  layer["trace.coverage"] = tracer.coverage("saturation.sweep", 1);
  finish_trace(report, o, tracer, layer,
               median(traced_walls) / median(walls) - 1);
}

int usage() {
  std::fprintf(stderr,
               "usage: wormsim_bench --workload campaign-cold|campaign-warm|"
               "campaign-light|search-deep|saturation\n"
               "                     [--seed N] [--seconds S] "
               "[--scale full|smoke] [--trace DIR] [--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return usage();
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(o.seconds >= 0)) return usage();
    } else if (arg == "--scale") {
      if (std::string_view(value) != "full" &&
          std::string_view(value) != "smoke")
        return usage();
      o.smoke = std::string_view(value) == "smoke";
    } else if (arg == "--trace") {
      o.trace_dir = value;
    } else if (arg == "--work-dir") {
      o.work_dir = value;
    } else {
      return usage();
    }
  }

  Report report;
  if (o.workload == "campaign-cold") {
    run_campaign_workload(o, CampaignKind::kCold, report);
  } else if (o.workload == "campaign-warm") {
    run_campaign_workload(o, CampaignKind::kWarm, report);
  } else if (o.workload == "campaign-light") {
    run_campaign_workload(o, CampaignKind::kLight, report);
  } else if (o.workload == "search-deep") {
    run_search_deep(o, report);
  } else if (o.workload == "saturation") {
    run_saturation(o, report);
  } else {
    return usage();
  }
  std::filesystem::remove_all(o.work_dir);
  const std::string json = report.to_json(
      o.workload, o.seed, o.smoke ? "smoke" : "full", !o.trace_dir.empty());
  std::printf("%s\n", json.c_str());
  return report.correct() ? 0 : 1;
}
