// wormsim_synth — deadlock-free routing existence analysis and oblivious
// routing-table synthesis on the built-in instance menu (src/synth).
//
// Modes:
//   analyze     run the existence analyzer and re-check every certificate
//               (witness orderings through verify_order, obstruction cores
//               by re-analysis on the core alone).
//   synthesize  run the full synthesizer (cyclic-CDG search first, then
//               the ordering-derived acyclic table), verify every emitted
//               table with the exhaustive deadlock search and a simulator
//               drain run, and optionally dump tables as wormsim-table-v1
//               JSON (--out-dir).
//   verify      load a previously dumped table (--table) against an
//               instance's network and re-verify it from scratch.
//
// `--help` lists every flag; docs/synthesis.md is the manual.
//
// The run lands in BENCH_synth.json (obs::RunReport, gated by
// tools/bench_compare.py; the engines are deterministic, so every row
// except *.wall_seconds is byte-reproducible). The heartbeat
// (--status-file) publishes "wormsim-status-v7" snapshots of kind "synth":
// progress counts instances, and the worker row mirrors per-instance
// agree/disagree totals (an instance "agrees" when its certificates and
// cross-checks are consistent).
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cli.hpp"
#include "core/analyzer.hpp"
#include "obs/run_report.hpp"
#include "obs/status.hpp"
#include "routing/table_io.hpp"
#include "synth/instances.hpp"
#include "synth/synthesize.hpp"

using namespace wormsim;

namespace {

struct Options {
  std::string mode;
  std::vector<std::string> instances = synth::instance_names();
  synth::SynthesisGoal goal = synth::SynthesisGoal::kPreferCyclic;
  std::uint64_t max_states = 250'000;
  std::uint64_t max_assignments = 64;
  std::string out_dir;
  std::string table_file;
  std::string report = "synth";
  std::string status_file;
  double status_interval = 1.0;
  bool quiet = false;
};

/// Shared per-run status board; the sampler thread reads it under the
/// mutex while the (single-threaded) run mutates it between instances.
struct StatusBoard {
  std::mutex mu;
  obs::StatusSnapshot snapshot;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One instance's outcome, already cross-checked. `consistent` is the
/// AND of every certificate/verifier agreement the mode performed.
struct InstanceOutcome {
  std::string name;
  synth::ExistenceVerdict verdict = synth::ExistenceVerdict::kInconclusive;
  std::string method;
  synth::TableKind kind = synth::TableKind::kNone;
  bool cdg_cyclic = false;
  std::uint64_t states = 0;
  std::uint64_t assignments = 0;
  std::uint64_t obstruction_pairs = 0;
  bool consistent = true;
  /// A search ran out of --max-states: the existence search, or the
  /// emitted table's re-verification.
  bool undecided = false;
  std::string detail;
  double wall_seconds = 0;
};

void note(InstanceOutcome& out, const std::string& why) {
  out.detail = out.detail.empty() ? why : out.detail + "; " + why;
}

void fail(InstanceOutcome& out, const std::string& why) {
  out.consistent = false;
  note(out, why);
}

/// The limits of a table's re-verification search: the run's --max-states.
analysis::SearchLimits search_limits(const Options& opt) {
  analysis::SearchLimits limits;
  limits.max_states = opt.max_states;
  return limits;
}

/// Checks a decided existence verdict against the instance's pinned
/// expectation. An inconclusive one (the search ran out of --max-states)
/// contradicts nothing: the instance is reported UNDECIDED and the run
/// exits 4.
void check_expectation(InstanceOutcome& out, synth::Expectation expected) {
  if (expected == synth::Expectation::kMustExist &&
      out.verdict == synth::ExistenceVerdict::kNotExists)
    fail(out, "known-good instance did not certify");
  if (expected == synth::Expectation::kMustNotExist &&
      out.verdict == synth::ExistenceVerdict::kExists)
    fail(out, "known-impossible instance not refused");
}

InstanceOutcome run_analyze(const synth::SynthInstance& inst,
                            const Options& opt) {
  InstanceOutcome out;
  out.name = inst.name;
  const auto t0 = std::chrono::steady_clock::now();
  synth::ExistenceOptions eopt;
  eopt.max_states = opt.max_states;
  eopt.hint_order = inst.hint_order;
  const synth::ExistenceCertificate cert =
      synth::analyze_existence(*inst.net, inst.pairs, eopt);
  out.verdict = cert.verdict;
  out.undecided = cert.verdict == synth::ExistenceVerdict::kInconclusive;
  out.method = cert.method;
  out.states = cert.states_searched + cert.obstruction.states_searched;
  out.obstruction_pairs = cert.obstruction.core.size();

  switch (cert.verdict) {
    case synth::ExistenceVerdict::kExists:
      if (!synth::verify_order(*inst.net, inst.pairs, cert.order))
        fail(out, "witness ordering fails verify_order");
      break;
    case synth::ExistenceVerdict::kNotExists: {
      // The obstruction core must itself be refused.
      const synth::ExistenceCertificate again = synth::analyze_existence(
          *inst.net, cert.obstruction.core, eopt);
      if (again.verdict != synth::ExistenceVerdict::kNotExists)
        fail(out, "obstruction core not reproduced on re-analysis");
      break;
    }
    case synth::ExistenceVerdict::kInconclusive:
      break;
  }
  check_expectation(out, inst.expectation);
  out.wall_seconds = seconds_since(t0);
  return out;
}

InstanceOutcome run_synthesize(const synth::SynthInstance& inst,
                               const Options& opt) {
  InstanceOutcome out;
  out.name = inst.name;
  const auto t0 = std::chrono::steady_clock::now();
  synth::SynthesisOptions sopt;
  sopt.goal = opt.goal;
  sopt.existence.max_states = opt.max_states;
  sopt.existence.hint_order = inst.hint_order;
  sopt.max_assignments = opt.max_assignments;
  sopt.seed_paths = inst.seed_paths;
  const synth::SynthesisResult result =
      synth::synthesize(*inst.net, inst.pairs, sopt);
  out.verdict = result.existence.verdict;
  out.undecided =
      result.existence.verdict == synth::ExistenceVerdict::kInconclusive;
  out.method = result.existence.method;
  out.kind = result.kind;
  out.cdg_cyclic = result.cdg_cyclic;
  out.states = result.existence.states_searched +
               result.existence.obstruction.states_searched;
  out.assignments = result.assignments_tried;
  out.obstruction_pairs = result.existence.obstruction.core.size();

  // Consistency contract: kExists must yield a deadlock-free table;
  // kNotExists may only yield a verified-cyclic (synchronous-model) one.
  if (result.existence.verdict == synth::ExistenceVerdict::kExists &&
      !result.table)
    fail(out, "existence says kExists but no table was synthesized");
  if (result.existence.verdict == synth::ExistenceVerdict::kNotExists &&
      result.table && result.kind != synth::TableKind::kCyclicVerified)
    fail(out, "kNotExists contradicted by a non-cyclic table");
  check_expectation(out, inst.expectation);

  if (result.table) {
    // Independent re-verification: CDG + exhaustive search, then a
    // simulator drain run of one message per pair. A search that runs out
    // of --max-states decides nothing, so it leaves the instance undecided.
    const core::AlgorithmAnalysis check =
        core::analyze_algorithm(*result.table, search_limits(opt));
    if (check.verdict == core::CycleVerdict::kInconclusive) {
      out.undecided = true;
      note(out, "emitted table's re-verification ran out of --max-states");
    } else if (check.verdict != core::CycleVerdict::kAcyclicCdg &&
               check.verdict != core::CycleVerdict::kFalseResourceCycle) {
      fail(out, std::string("emitted table re-verifies as ") +
                    core::to_string(check.verdict));
    }
    if ((check.cyclic_scc_count > 0) != result.cdg_cyclic)
      fail(out, "cdg_cyclic flag disagrees with re-verification");
    if (!synth::simulate_clean(*result.table, inst.pairs))
      fail(out, "simulator drain run did not consume every message");
    if (!opt.out_dir.empty()) {
      const std::string path =
          opt.out_dir + "/" + inst.name + ".table.json";
      std::string io_error;
      if (!routing::write_table_file(*result.table, path, &io_error))
        fail(out, io_error);
    }
  }
  out.wall_seconds = seconds_since(t0);
  return out;
}

int run_verify(const Options& opt) {
  if (opt.instances.size() != 1 || opt.table_file.empty()) {
    std::fprintf(stderr,
                 "wormsim_synth: verify needs --instance and --table\n");
    return 2;
  }
  const synth::SynthInstance inst =
      synth::make_synth_instance(opt.instances.front());
  const routing::TableLoadResult loaded =
      routing::load_table_file(*inst.net, opt.table_file);
  if (!loaded.ok()) {
    std::fprintf(stderr, "wormsim_synth: %s: %s\n", opt.table_file.c_str(),
                 loaded.error.c_str());
    return 3;
  }
  for (const synth::NodePair& p : inst.pairs) {
    if (p.src == p.dst) continue;
    if (!loaded.table->routes(p.src, p.dst)) {
      std::fprintf(stderr, "wormsim_synth: table misses pair %u->%u\n",
                   p.src.value(), p.dst.value());
      return 1;
    }
  }
  const core::AlgorithmAnalysis check =
      core::analyze_algorithm(*loaded.table, search_limits(opt));
  const bool undecided = check.verdict == core::CycleVerdict::kInconclusive;
  const bool deadlock_free =
      check.verdict == core::CycleVerdict::kAcyclicCdg ||
      check.verdict == core::CycleVerdict::kFalseResourceCycle;
  const bool sim_ok = synth::simulate_clean(*loaded.table, inst.pairs);
  if (!opt.quiet)
    std::printf("%-11s table=%s verdict=%s cyclic=%d sim=%s%s\n",
                inst.name.c_str(), opt.table_file.c_str(),
                core::to_string(check.verdict),
                check.cyclic_scc_count > 0 ? 1 : 0,
                sim_ok ? "clean" : "FAILED", undecided ? " UNDECIDED" : "");
  if (!sim_ok || (!deadlock_free && !undecided)) return 1;
  return undecided ? 4 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::vector<std::string> mode;
  cli::Parser parser(
      "wormsim_synth", "analyze|synthesize|verify [flags]",
      "verify needs --instance NAME --table FILE\n"
      "exit: 0 all consistent, 1 inconsistency/deadlock, 2 usage, 3 I/O,\n"
      "      4 undecided (an existence search or a table's re-verification\n"
      "      ran out of --max-states)\n"
      "see docs/synthesis.md for the manual\n");
  parser.operands(mode);
  std::string menu;
  for (const std::string& name : synth::instance_names())
    menu += (menu.empty() ? "" : "|") + name;
  parser.add({"--instances", "NAME,...", "all or a comma list of " + menu,
              "all", "instances to run (alias --instance)",
              [&opt](const char* text) {
                const std::vector<std::string> names =
                    std::string(text) == "all" ? synth::instance_names()
                                               : cli::split(text);
                for (const std::string& name : names)
                  if (!synth::is_instance_name(name)) return false;
                opt.instances = names;
                return true;
              }});
  parser.alias("--instance", "--instances");
  parser.choice("--goal", opt.goal,
                {{"cyclic", synth::SynthesisGoal::kPreferCyclic},
                 {"acyclic", synth::SynthesisGoal::kRobustAcyclic}},
                "prefer a verified cyclic-CDG table, or acyclic only");
  parser.integer("--max-states", opt.max_states,
                 "state budget per existence query and per table "
                 "re-verification");
  parser.integer("--max-assignments", opt.max_assignments,
                 "complete assignments the cyclic search may verify");
  parser.text("--out-dir", "DIR", opt.out_dir,
              "dump each synthesized table as DIR/<instance>.table.json");
  parser.text("--table", "FILE", opt.table_file,
              "verify mode: the table file to re-verify");
  parser.text("--report", "NAME", opt.report,
              "run report name: BENCH_<NAME>.json");
  cli::status_flags(parser, opt.status_file, opt.status_interval);
  parser.flag("--quiet", opt.quiet, "suppress per-instance lines");
  parser.parse(argc, argv);
  opt.mode = mode.size() == 1 ? mode.front() : "";
  if (opt.mode != "analyze" && opt.mode != "synthesize" &&
      opt.mode != "verify")
    return parser.error("expected one mode: analyze|synthesize|verify");

  if (opt.mode == "verify") return run_verify(opt);

  if (!opt.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opt.out_dir, ec);
    if (ec) {
      std::fprintf(stderr, "wormsim_synth: cannot create %s: %s\n",
                   opt.out_dir.c_str(), ec.message().c_str());
      return 3;
    }
  }

  StatusBoard board;
  board.snapshot.kind = "synth";
  board.snapshot.count = opt.instances.size();
  board.snapshot.workers.resize(1);
  std::unique_ptr<obs::StatusSampler> sampler;
  if (!opt.status_file.empty())
    sampler = std::make_unique<obs::StatusSampler>(
        opt.status_file, opt.status_interval, [&board] {
          std::lock_guard<std::mutex> lock(board.mu);
          return board.snapshot;
        });

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<InstanceOutcome> outcomes;
  std::size_t undecided = 0;
  for (const std::string& name : opt.instances) {
    const synth::SynthInstance inst = synth::make_synth_instance(name);
    InstanceOutcome out = opt.mode == "analyze" ? run_analyze(inst, opt)
                                                : run_synthesize(inst, opt);
    if (out.undecided) ++undecided;
    if (!opt.quiet)
      std::printf(
          "%-11s verdict=%-12s method=%-14s kind=%-17s cyclic=%d %s%s%s\n",
          out.name.c_str(), synth::to_string(out.verdict),
          out.method.c_str(), synth::to_string(out.kind),
          out.cdg_cyclic ? 1 : 0,
          !out.consistent ? "INCONSISTENT"
          : out.undecided ? "UNDECIDED"
                          : "ok",
          out.detail.empty() ? "" : ": ", out.detail.c_str());
    {
      std::lock_guard<std::mutex> lock(board.mu);
      ++board.snapshot.done;
      out.consistent ? ++board.snapshot.agree : ++board.snapshot.disagree;
      board.snapshot.states_total += out.states;
      obs::WorkerStatus& w = board.snapshot.workers.front();
      ++w.done;
      w.in_flight = w.done;  // the next instance, or count once idle
      out.consistent ? ++w.agree : ++w.disagree;
      w.states += out.states;
    }
    outcomes.push_back(std::move(out));
  }
  if (sampler) sampler->stop();

  obs::RunReport report;
  report.name = opt.report;
  report.kind = "synth";
  report.labels["mode"] = opt.mode;
  report.labels["goal"] = synth::to_string(opt.goal);
  bool all_consistent = true;
  for (const InstanceOutcome& out : outcomes) {
    const std::string prefix = "synth." + out.name + ".";
    report.values[prefix + "exists"] =
        out.verdict == synth::ExistenceVerdict::kExists ? 1 : 0;
    report.values[prefix + "not_exists"] =
        out.verdict == synth::ExistenceVerdict::kNotExists ? 1 : 0;
    report.values[prefix + "table_kind"] = static_cast<double>(out.kind);
    report.values[prefix + "cdg_cyclic"] = out.cdg_cyclic ? 1 : 0;
    report.values[prefix + "consistent"] = out.consistent ? 1 : 0;
    report.values[prefix + "obstruction_pairs"] =
        static_cast<double>(out.obstruction_pairs);
    report.values[prefix + "wall_seconds"] = out.wall_seconds;
    report.labels[prefix + "method"] = out.method;
    all_consistent = all_consistent && out.consistent;
  }
  report.values["instances"] = static_cast<double>(outcomes.size());
  report.values["total_wall_seconds"] = seconds_since(t0);
  if (!obs::write_report_file(report)) {
    std::fprintf(stderr, "wormsim_synth: cannot write %s\n",
                 obs::report_path(report).c_str());
    return 3;
  }
  if (!opt.quiet)
    std::printf("%s: %zu instances, %s, %zu undecided\n", opt.mode.c_str(),
                outcomes.size(),
                all_consistent ? "all consistent" : "INCONSISTENCIES FOUND",
                undecided);
  if (!all_consistent) return 1;
  return undecided > 0 ? 4 : 0;
}
