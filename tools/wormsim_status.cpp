// wormsim_status — render live heartbeat files written by --status-file.
//
// A campaign, saturation sweep or synth run (any producer using
// obs::StatusSampler) publishes an atomically replaced JSON snapshot; this
// tool turns one or more of those files into a terminal dashboard, one row
// per file. `--help` lists the flags.
//
// Missing or half-written files are reported as "waiting" rather than
// treated as errors: the watcher is typically started before (or raced
// against) the run it observes. So is a snapshot whose counters are not
// all exact non-negative integers. Exit is 0 once every file parsed at least
// once; 1 if a one-shot render found no readable snapshot; 2 on usage
// errors. docs/observability.md documents the snapshot schema.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "obs/json.hpp"
#include "obs/status.hpp"

using wormsim::obs::json::Value;

namespace {

/// The subset of a snapshot the dashboard shows.
struct Row {
  bool ok = false;  ///< file existed and parsed as a status snapshot
  std::string kind;
  std::uint64_t seq = 0;
  bool running = false;
  std::uint64_t done = 0, count = 0;
  std::uint64_t agree = 0, disagree = 0, skip = 0;
  double rate = 0;
  double eta = -1;
  double truth_hit_rate = 0;
  bool search_active = false;
  std::uint64_t search_states = 0;
  std::uint64_t table_keys = 0;
  std::uint64_t busy_ns = 0, idle_ns = 0;  ///< summed over worker rows
  std::size_t workers = 0;
};

double num_field(const Value& obj, const char* key) {
  const Value* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : 0;
}

Row read_row(const std::string& path) {
  Row row;
  std::ifstream in(path, std::ios::binary);
  if (!in) return row;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto parsed = wormsim::obs::json::parse(buffer.str());
  if (!parsed || !parsed->is_object()) return row;
  const Value* schema = parsed->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != wormsim::obs::kStatusSchema)
    return row;

  // A counter present but not an exact u64 (negative, fractional, out of
  // range, not a number) voids the whole snapshot.
  bool exact = true;
  const auto u64_field = [&exact](const Value& obj, const char* key) {
    const Value* v = obj.find(key);
    if (v == nullptr) return std::uint64_t{0};
    if (v->is_exact_u64()) return v->as_u64();
    exact = false;
    return std::uint64_t{0};
  };
  if (const Value* kind = parsed->find("kind"); kind && kind->is_string())
    row.kind = kind->as_string();
  row.seq = u64_field(*parsed, "seq");
  if (const Value* running = parsed->find("running");
      running && running->is_bool())
    row.running = running->as_bool();

  if (const Value* progress = parsed->find("progress");
      progress && progress->is_object()) {
    row.done = u64_field(*progress, "done");
    row.count = u64_field(*progress, "count");
    row.agree = u64_field(*progress, "agree");
    row.disagree = u64_field(*progress, "disagree");
    row.skip = u64_field(*progress, "skip");
    row.rate = num_field(*progress, "rate_per_second");
    row.eta = num_field(*progress, "eta_seconds");
  }
  if (const Value* truth = parsed->find("truth_cache");
      truth && truth->is_object())
    row.truth_hit_rate = num_field(*truth, "hit_rate");
  if (const Value* search = parsed->find("search");
      search && search->is_object()) {
    if (const Value* active = search->find("active");
        active && active->is_bool())
      row.search_active = active->as_bool();
    row.search_states = u64_field(*search, "states_explored");
    row.table_keys = u64_field(*search, "table_keys");
  }
  if (const Value* workers = parsed->find("workers");
      workers && workers->is_array()) {
    row.workers = workers->as_array().size();
    for (const Value& w : workers->as_array()) {
      if (!w.is_object()) continue;
      row.busy_ns += u64_field(w, "busy_ns");
      row.idle_ns += u64_field(w, "idle_ns");
    }
  }
  if (!exact) return Row{};
  row.ok = true;
  return row;
}

std::string format_eta(double eta) {
  if (eta < 0) return "?";
  char buf[32];
  if (eta >= 3600)
    std::snprintf(buf, sizeof buf, "%.1fh", eta / 3600);
  else if (eta >= 60)
    std::snprintf(buf, sizeof buf, "%.1fm", eta / 60);
  else
    std::snprintf(buf, sizeof buf, "%.0fs", eta);
  return buf;
}

void print_row(const std::string& label, const Row& row) {
  if (!row.ok) {
    std::printf("%-28s waiting (no snapshot yet)\n", label.c_str());
    return;
  }
  const double pct =
      row.count > 0
          ? 100.0 * static_cast<double>(row.done) /
                static_cast<double>(row.count)
          : 0;
  // Worker utilization: busy / (busy + idle) over every worker row. "-"
  // when the producer published no timing (pre-work-stealing snapshots, or
  // campaign workers that have not finished a search yet).
  char util[16] = "-";
  if (row.busy_ns + row.idle_ns > 0)
    std::snprintf(util, sizeof util, "%.0f%%",
                  100.0 * static_cast<double>(row.busy_ns) /
                      static_cast<double>(row.busy_ns + row.idle_ns));
  std::printf(
      "%-28s %s %-10s seq=%llu %6.1f%% done=%llu/%llu agree=%llu "
      "disagree=%llu "
      "skip=%llu rate=%.1f/s eta=%s cache-hit=%.0f%% search[%s states=%llu "
      "keys=%llu workers=%zu util=%s]\n",
      label.c_str(), row.running ? "RUN " : "DONE",
      row.kind.empty() ? "?" : row.kind.c_str(),
      static_cast<unsigned long long>(row.seq), pct,
      static_cast<unsigned long long>(row.done),
      static_cast<unsigned long long>(row.count),
      static_cast<unsigned long long>(row.agree),
      static_cast<unsigned long long>(row.disagree),
      static_cast<unsigned long long>(row.skip), row.rate,
      format_eta(row.eta).c_str(), 100.0 * row.truth_hit_rate,
      row.search_active ? "live" : "idle",
      static_cast<unsigned long long>(row.search_states),
      static_cast<unsigned long long>(row.table_keys), row.workers, util);
}

/// Renders one row per file. Returns true when every file parsed and none
/// is still running.
bool render(const std::vector<std::string>& files, bool* any_ok) {
  bool all_done = true;
  for (const std::string& path : files) {
    const Row row = read_row(path);
    print_row(path, row);
    *any_ok = *any_ok || row.ok;
    all_done = all_done && row.ok && !row.running;
  }
  return all_done;
}

}  // namespace

int main(int argc, char** argv) {
  double interval = 2.0;
  std::vector<std::string> files;
  wormsim::cli::Parser parser(
      "wormsim_status", "[--watch [SECONDS]] FILE...",
      "renders " + std::string(wormsim::obs::kStatusSchema) +
          " heartbeat files (see docs/observability.md)\n");
  parser.operands(files);
  // An operand right after --watch that begins like a number is the
  // interval, so `--watch inf` is rejected rather than read as a file.
  parser
      .seconds("--watch", interval,
               "re-render every SECONDS until every file reports "
               "running=false")
      .optional_value = true;
  parser.parse(argc, argv);
  if (files.empty()) return parser.error("no status file given");

  bool any_ok = false;
  if (!parser.seen("--watch")) {
    render(files, &any_ok);
    return any_ok ? 0 : 1;
  }
  for (;;) {
    const bool all_done = render(files, &any_ok);
    if (all_done) return 0;
    std::printf("---\n");
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::duration<double>(interval));
  }
}
