// Reachability-search scaling: how the exhaustive deadlock search's state
// count and runtime grow with ring size, message count and adversary model.
// Engineering bench for the model checker that replaces the paper's hand
// proofs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "analysis/deadlock_search.hpp"
#include "analysis/state_table.hpp"
#include "core/cyclic_family.hpp"
#include "core/paper_networks.hpp"
#include "obs/run_report.hpp"
#include "routing/node_table.hpp"
#include "topo/builders.hpp"
#include "util/varint.hpp"

using namespace wormsim;

namespace {

/// A deliberately skewed search tree: the Figure-1 ring (four long messages
/// whose interleavings form the deep core) plus three hold=1 stub messages
/// that inject, cross one ring channel, and drain. The stubs widen the root
/// of the DFS tree with branches that either terminate within a few levels
/// or fall into already-memoized territory, while one spine carries almost
/// all of the unique states — the worst case for a statically partitioned
/// frontier and the motivating case for work stealing.
core::CyclicFamilySpec skewed_spec() {
  core::CyclicFamilySpec spec = core::fig1_spec();
  spec.name = "skewed-fig1-plus-stubs";
  for (int i = 0; i < 3; ++i) spec.messages.push_back({2, 1, true});
  return spec;
}

void BM_Search_SkewedTree(benchmark::State& state) {
  // Scheduling bench: every family message has its own source node, so no
  // two messages are twins and the default (safe) reduction leaves the
  // tree as it is (29,716 states in both modes). The wall clock is
  // dominated by how evenly the workers split the one deep subtree; the
  // per-worker state shares in the --sched-report harness show the
  // distribution.
  const core::CyclicFamily family(skewed_spec());
  analysis::SearchLimits limits;
  limits.threads = static_cast<unsigned>(state.range(0));

  analysis::DeadlockSearchResult result;
  for (auto _ : state) {
    result = analysis::find_deadlock(
        family.algorithm(), family.message_specs(),
        analysis::AdversaryModel::kSynchronous, limits);
  }
  state.counters["threads"] = static_cast<double>(limits.threads);
  state.counters["states"] = static_cast<double>(result.states_explored);
  state.counters["exhausted"] = result.exhausted ? 1.0 : 0.0;
  state.counters["states_per_sec"] = result.profile.states_per_second;
}
BENCHMARK(BM_Search_SkewedTree)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_Search_UnidirectionalRing(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const topo::Network net = topo::make_unidirectional_ring(n);
  routing::NodeTable table(net);
  const auto sz = static_cast<std::size_t>(n);
  for (std::size_t s = 0; s < sz; ++s)
    for (std::size_t d = 0; d < sz; ++d)
      if (s != d)
        table.set(NodeId{s}, NodeId{d},
                  *net.find_channel(NodeId{s}, NodeId{(s + 1) % sz}));
  std::vector<sim::MessageSpec> specs;
  for (std::size_t s = 0; s < sz; ++s)
    specs.push_back({NodeId{s}, NodeId{(s + 2) % sz}, 2, 0});

  analysis::DeadlockSearchResult result;
  for (auto _ : state) {
    result = analysis::find_deadlock(table, specs,
                                     analysis::AdversaryModel::kSynchronous,
                                     {});
  }
  state.counters["ring"] = n;
  state.counters["states"] = static_cast<double>(result.states_explored);
  state.counters["deadlock"] = result.deadlock_found ? 1.0 : 0.0;
  state.counters["memo_hit_rate"] = result.profile.memo_hit_rate();
  state.counters["peak_depth"] =
      static_cast<double>(result.profile.peak_depth);
  state.counters["states_per_sec"] = result.profile.states_per_second;
}
BENCHMARK(BM_Search_UnidirectionalRing)->Arg(4)->Arg(5)->Arg(6)
    ->Unit(benchmark::kMillisecond);

void BM_Search_Fig1MessageCount(benchmark::State& state) {
  // Cost of proving Figure-1 safety as the probe multiset grows.
  const core::CyclicFamily family(core::fig1_spec());
  const auto base = family.message_specs();
  std::vector<sim::MessageSpec> specs;
  const auto copies = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < copies; ++i)
    specs.insert(specs.end(), base.begin(), base.end());

  analysis::DeadlockSearchResult result;
  for (auto _ : state) {
    result = analysis::find_deadlock(
        family.algorithm(), specs, analysis::AdversaryModel::kSynchronous,
        {});
  }
  state.counters["messages"] = static_cast<double>(specs.size());
  state.counters["states"] = static_cast<double>(result.states_explored);
  state.counters["deadlock"] = result.deadlock_found ? 1.0 : 0.0;
  state.counters["memo_hit_rate"] = result.profile.memo_hit_rate();
  state.counters["mean_branch"] = result.profile.branch_factor.mean();
}
BENCHMARK(BM_Search_Fig1MessageCount)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_Search_Fig1Reduction(benchmark::State& state) {
  // Figure-1 safety proof at x1/x2 copies under each reduction mode. x2
  // duplicates every spec, so twin symmetry (safe) collapses the
  // interchangeable-copy interleavings.
  const core::CyclicFamily family(core::fig1_spec());
  const auto base = family.message_specs();
  std::vector<sim::MessageSpec> specs;
  const auto copies = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < copies; ++i)
    specs.insert(specs.end(), base.begin(), base.end());
  analysis::SearchLimits limits;
  limits.reduction = static_cast<analysis::ReductionMode>(state.range(1));

  analysis::DeadlockSearchResult result;
  for (auto _ : state) {
    result = analysis::find_deadlock(
        family.algorithm(), specs, analysis::AdversaryModel::kSynchronous,
        limits);
  }
  state.SetLabel(std::string("reduction=") +
                 analysis::to_string(limits.reduction));
  state.counters["copies"] = static_cast<double>(copies);
  state.counters["reduction"] = static_cast<double>(state.range(1));
  state.counters["states"] = static_cast<double>(result.states_explored);
  state.counters["deadlock"] = result.deadlock_found ? 1.0 : 0.0;
  state.counters["exhausted"] = result.exhausted ? 1.0 : 0.0;
  state.counters["states_per_sec"] = result.profile.states_per_second;
}
BENCHMARK(BM_Search_Fig1Reduction)
    ->Args({1, 0})->Args({1, 1})
    ->Args({2, 0})->Args({2, 1})
    ->Unit(benchmark::kMillisecond);

void BM_Search_DelayBudgetCost(benchmark::State& state) {
  // State-space growth of the bounded-delay adversary on Figure 1.
  const core::CyclicFamily family(core::fig1_spec());
  analysis::SearchLimits limits;
  limits.delay_budget = static_cast<std::uint32_t>(state.range(0));
  analysis::DeadlockSearchResult result;
  for (auto _ : state) {
    result = analysis::find_deadlock(
        family.algorithm(), family.message_specs(),
        analysis::AdversaryModel::kBoundedDelay, limits);
  }
  state.counters["budget"] = static_cast<double>(limits.delay_budget);
  state.counters["states"] = static_cast<double>(result.states_explored);
  state.counters["deadlock"] = result.deadlock_found ? 1.0 : 0.0;
}
BENCHMARK(BM_Search_DelayBudgetCost)->Arg(0)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);

void BM_Search_Fig1Threads(benchmark::State& state) {
  // Worker scaling on the Figure-1 x2 safety proof (the largest exhaustion
  // in the suite). On a 1-CPU container threads > 1 only measure engine
  // overhead; on real hardware this is the near-linear-scaling bench.
  const core::CyclicFamily family(core::fig1_spec());
  const auto base = family.message_specs();
  std::vector<sim::MessageSpec> specs;
  specs.insert(specs.end(), base.begin(), base.end());
  specs.insert(specs.end(), base.begin(), base.end());
  analysis::SearchLimits limits;
  limits.threads = static_cast<unsigned>(state.range(0));

  analysis::DeadlockSearchResult result;
  for (auto _ : state) {
    result = analysis::find_deadlock(
        family.algorithm(), specs, analysis::AdversaryModel::kSynchronous,
        limits);
  }
  state.counters["threads"] = static_cast<double>(limits.threads);
  state.counters["states"] = static_cast<double>(result.states_explored);
  state.counters["exhausted"] = result.exhausted ? 1.0 : 0.0;
  state.counters["states_per_sec"] = result.profile.states_per_second;
}
BENCHMARK(BM_Search_Fig1Threads)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_Search_DelaySweepThreads(benchmark::State& state) {
  // minimal_deadlock_delay budget sweep with the chunked-parallel scan:
  // independent budgets run concurrently, so this scales even when each
  // single search is small.
  const core::CyclicFamily family(core::fig1_spec());
  analysis::SearchLimits limits;
  limits.threads = static_cast<unsigned>(state.range(0));

  std::optional<std::uint32_t> min_delay;
  for (auto _ : state) {
    min_delay = analysis::minimal_deadlock_delay(
        family.algorithm(), family.message_specs(),
        analysis::DelayMetric::kTotal, 3, limits);
  }
  state.counters["threads"] = static_cast<double>(limits.threads);
  state.counters["min_delay"] =
      min_delay ? static_cast<double>(*min_delay) : -1.0;
}
BENCHMARK(BM_Search_DelaySweepThreads)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// Collects the state keys of every state the Figure-1 x1 exhaustion
/// visits, so the memoization benchmark below replays a realistic
/// insert/hit workload against the visited set.
std::vector<std::string> collect_fig1_state_keys() {
  const core::CyclicFamily family(core::fig1_spec());
  // Real simulator serializations from deterministic runs of increasing
  // prefix length, with varied varint tails standing in for the
  // bounded-delay spent vector. Key size and count match what the search
  // feeds its visited set; the exact bytes are irrelevant.
  sim::SimConfig config;
  config.buffer_depth = 1;
  std::vector<std::string> keys;
  const auto specs = family.message_specs();
  for (std::uint32_t prefix = 0; prefix < 64; ++prefix) {
    sim::WormholeSimulator sim(family.algorithm(), config);
    for (const auto& spec : specs) sim.add_message(spec);
    for (std::uint32_t c = 0; c <= prefix && !sim.all_consumed(); ++c)
      sim.step_with_grants({});
    std::string key;
    sim.append_state_key(key);
    util::append_varint(key, prefix);  // vary the tail like spent vectors
    for (std::uint32_t extra = 0; extra < 511; ++extra) {
      std::string variant = key;
      util::append_varint(variant, extra * 257u);
      keys.push_back(std::move(variant));
    }
    keys.push_back(std::move(key));
  }
  return keys;
}

void BM_Memo_StateTable(benchmark::State& state) {
  // Serialize into one reused scratch buffer and insert into the
  // arena-backed StateTable (serial: 1 stripe).
  const auto keys = collect_fig1_state_keys();
  std::uint64_t unique = 0;
  for (auto _ : state) {
    analysis::StateTable visited(1);
    std::string scratch;
    unique = 0;
    for (int pass = 0; pass < 2; ++pass) {  // second pass: all hits
      for (const auto& key : keys) {
        scratch.clear();
        scratch.append(key);
        if (visited.lookup_or_insert(scratch) ==
            analysis::StateTable::Lookup::kFresh)
          ++unique;
      }
    }
    benchmark::DoNotOptimize(unique);
  }
  state.counters["keys"] = static_cast<double>(keys.size() * 2);
  state.counters["unique"] = static_cast<double>(unique);
}
BENCHMARK(BM_Memo_StateTable)->Unit(benchmark::kMicrosecond);

/// The Section-6 k=2 family probe's delta = 0 doubled search for ring
/// message 1 (core::probe_family_deadlock): the base multiset, one copy of
/// each message at its path length, and a second copy of message 1 — nine
/// messages, 240,240 states, no deadlock. At about half a second on one
/// thread it is the sched report's case long enough to time four workers.
std::vector<sim::MessageSpec> k2_doubled_specs(const core::CyclicFamily& k2) {
  const auto base = k2.message_specs();
  std::vector<sim::MessageSpec> specs = base;
  for (std::size_t i = 0; i < base.size(); ++i) {
    sim::MessageSpec aux = base[i];
    aux.length = static_cast<std::uint32_t>(k2.messages()[i].path.size());
    if (aux.length <= base[i].length) continue;
    specs.push_back(aux);
    if (i == 1) specs.push_back(aux);
  }
  return specs;
}

/// One measured scheduling case for the --sched-report harness.
struct SchedCase {
  const char* name;                      ///< metric prefix (sched.<name>.*)
  const core::CyclicFamily* family;
  std::vector<sim::MessageSpec> specs;
};

/// Runs the scheduling cases at threads {1, 4} and writes an
/// obs::RunReport as BENCH_bench_search.json (honoring WORMSIM_BENCH_DIR).
/// Wall seconds are the min over `reps` runs (inform-only downstream);
/// verdicts and state counts at both thread counts and the t1 memo-table
/// peak bytes are exact and gated, so the gate holds the t4 results to the
/// t1 ones. Three cases are exhaustive proofs; fig3cx2 deadlocks, so its
/// t4 run stops early and returns the serial re-derivation. t4 rows of a
/// parallel result include the largest per-worker share of memo misses —
/// the direct evidence of whether the scheduler spread the one deep
/// subtree or left it on a single worker.
int run_sched_report() {
  const core::CyclicFamily fig1(core::fig1_spec());
  const auto fig1_base = fig1.message_specs();
  std::vector<sim::MessageSpec> fig1_x2;
  fig1_x2.insert(fig1_x2.end(), fig1_base.begin(), fig1_base.end());
  fig1_x2.insert(fig1_x2.end(), fig1_base.begin(), fig1_base.end());
  const core::CyclicFamily skewed(skewed_spec());
  const core::CyclicFamily k2(core::generalized_spec(2));
  const core::CyclicFamily fig3c(core::fig3_spec(core::Fig3Variant::kC));
  const auto fig3c_base = fig3c.message_specs();
  std::vector<sim::MessageSpec> fig3c_x2 = fig3c_base;
  fig3c_x2.insert(fig3c_x2.end(), fig3c_base.begin(), fig3c_base.end());

  std::vector<SchedCase> cases;
  cases.push_back({"fig1x2", &fig1, fig1_x2});
  cases.push_back({"skewed", &skewed, skewed.message_specs()});
  cases.push_back({"k2doubled", &k2, k2_doubled_specs(k2)});
  cases.push_back({"fig3cx2", &fig3c, fig3c_x2});

  obs::RunReport report;
  report.name = "bench_search";
  report.kind = "bench";
  report.labels["suite"] = "sched";

  constexpr int kReps = 3;
  for (const SchedCase& c : cases) {
    double wall_t1 = 0;
    for (const unsigned threads : {1u, 4u}) {
      analysis::SearchLimits limits;
      limits.threads = threads;
      analysis::DeadlockSearchResult result;
      double best = 0;
      for (int rep = 0; rep < kReps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        result = analysis::find_deadlock(
            c.family->algorithm(), c.specs,
            analysis::AdversaryModel::kSynchronous, limits);
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        if (rep == 0 || wall < best) best = wall;
      }
      const std::string prefix =
          std::string("sched.") + c.name + ".t" + std::to_string(threads);
      report.values[prefix + ".wall_seconds"] = best;
      report.values[prefix + ".states"] =
          static_cast<double>(result.states_explored);
      // The t1 verdict rows keep the case's own prefix.
      const std::string verdict =
          threads == 1 ? std::string("sched.") + c.name : prefix;
      report.values[verdict + ".deadlock"] = result.deadlock_found ? 1.0 : 0.0;
      report.values[verdict + ".exhausted"] = result.exhausted ? 1.0 : 0.0;
      if (threads == 1) {
        wall_t1 = best;
        // Memo footprint: deterministic at one thread (same keys, same
        // insertion order), so exact-gated like the state counts.
        report.values[prefix + ".table_peak_bytes"] =
            static_cast<double>(result.profile.table_peak_resident_bytes);
      } else {
        if (best > 0)
          report.values[std::string("sched.") + c.name + ".speedup_t" +
                        std::to_string(threads)] = wall_t1 / best;
        // Worst-case worker share of unique-state expansions: ~1.0 means
        // one worker owned the whole deep subtree, ~1/threads is ideal. A
        // re-derived result has a single shard, which says nothing.
        std::uint64_t total = 0, peak = 0;
        for (const auto& shard : result.worker_profiles) {
          total += shard.memo_misses;
          peak = std::max(peak, shard.memo_misses);
        }
        if (total > 0 && result.worker_profiles.size() > 1)
          report.values[prefix + ".max_worker_share"] =
              static_cast<double>(peak) / static_cast<double>(total);
      }
      std::printf("%s.wall_seconds=%.4f states=%llu deadlock=%d exhausted=%d\n",
                  prefix.c_str(), best,
                  static_cast<unsigned long long>(result.states_explored),
                  result.deadlock_found ? 1 : 0, result.exhausted ? 1 : 0);
    }
  }
  if (!obs::write_report_file(report)) {
    std::fprintf(stderr, "bench_search: failed to write report file\n");
    return 1;
  }
  return 0;
}

}  // namespace

// Standard benchmark main plus a --sched-report mode: the flag is stripped
// before benchmark::Initialize sees it, and after any selected google
// benchmarks run, the scheduling mini-harness above writes the
// BENCH_bench_search.json run report (CI passes
// --benchmark_filter=NoSuchBenchmark to run the harness alone).
int main(int argc, char** argv) {
  bool sched_report = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sched-report") == 0)
      sched_report = true;
    else
      args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (sched_report) return run_sched_report();
  return 0;
}
