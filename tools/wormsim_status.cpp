// wormsim_status — render live heartbeat files written by --status-file.
//
// A campaign (or any producer using obs::StatusSampler) publishes an
// atomically replaced JSON snapshot; this tool turns one or more of those
// files into a terminal dashboard. Point it at several shard files and it
// prints one row per shard plus a TOTAL row, so a multi-process campaign
// (--shard-index/--shard-total) reads as a single run.
//
// Usage:
//   wormsim_status FILE...                one-shot render, then exit
//   wormsim_status --watch [N] FILE...    re-render every N seconds (default
//                                         2) until every file reports
//                                         running=false
//
// Missing or half-written files are reported as "waiting" rather than
// treated as errors: the watcher is typically started before (or raced
// against) the campaign it observes. Exit is 0 once every file parsed at
// least once; 1 if a one-shot render found no readable snapshot; 2 on usage
// errors. docs/observability.md documents the snapshot schema.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/status.hpp"

using wormsim::obs::json::Value;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--watch [SECONDS]] FILE...\n"
               "renders %s heartbeat files (see docs/observability.md)\n",
               argv0, std::string(wormsim::obs::kStatusSchema).c_str());
  return 2;
}

/// The subset of a snapshot the dashboard shows, pre-extracted so rows and
/// the TOTAL aggregate share one representation.
struct Row {
  bool ok = false;  ///< file existed and parsed as a status snapshot
  std::string kind;
  std::uint64_t seq = 0;
  bool running = false;
  double elapsed = 0;
  std::uint64_t done = 0, slice = 0;
  std::uint64_t agree = 0, disagree = 0, skip = 0;
  std::uint64_t states = 0;
  double rate = 0;
  double eta = -1;
  double truth_hit_rate = 0;
  // kind == "fleet" only: coordinator batch accounting.
  std::uint64_t batches_done = 0, batches_total = 0;
  std::uint64_t batches_leased = 0, batches_quarantined = 0;
  std::uint64_t fleet_workers = 0;
  bool search_active = false;
  std::uint64_t search_states = 0;
  std::uint64_t table_keys = 0;
  std::uint64_t busy_ns = 0, idle_ns = 0;  ///< summed over worker rows
  std::size_t workers = 0;
};

std::uint64_t u64_field(const Value& obj, const char* key) {
  const Value* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->as_u64() : 0;
}

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

  row.ok = true;
  if (const Value* kind = parsed->find("kind"); kind && kind->is_string())
    row.kind = kind->as_string();
  row.seq = u64_field(*parsed, "seq");
  if (const Value* running = parsed->find("running");
      running && running->is_bool())
    row.running = running->as_bool();
  row.elapsed = num_field(*parsed, "elapsed_seconds");

  if (const Value* progress = parsed->find("progress");
      progress && progress->is_object()) {
    row.done = u64_field(*progress, "done");
    row.slice = u64_field(*progress, "end_index") -
                u64_field(*progress, "first_index");
    row.agree = u64_field(*progress, "agree");
    row.disagree = u64_field(*progress, "disagree");
    row.skip = u64_field(*progress, "skip");
    row.states = u64_field(*progress, "states_total");
    row.rate = num_field(*progress, "rate_per_second");
    row.eta = num_field(*progress, "eta_seconds");
  }
  if (const Value* truth = parsed->find("truth_cache");
      truth && truth->is_object())
    row.truth_hit_rate = num_field(*truth, "hit_rate");
  if (const Value* fleet = parsed->find("fleet");
      fleet && fleet->is_object()) {
    row.batches_done = u64_field(*fleet, "batches_done");
    row.batches_total = u64_field(*fleet, "batches_total");
    row.batches_leased = u64_field(*fleet, "batches_leased");
    row.batches_quarantined = u64_field(*fleet, "batches_quarantined");
    row.fleet_workers = u64_field(*fleet, "workers_active");
  }
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
      row.slice > 0
          ? 100.0 * static_cast<double>(row.done) /
                static_cast<double>(row.slice)
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
      static_cast<unsigned long long>(row.slice),
      static_cast<unsigned long long>(row.agree),
      static_cast<unsigned long long>(row.disagree),
      static_cast<unsigned long long>(row.skip), row.rate,
      format_eta(row.eta).c_str(), 100.0 * row.truth_hit_rate,
      row.search_active ? "live" : "idle",
      static_cast<unsigned long long>(row.search_states),
      static_cast<unsigned long long>(row.table_keys), row.workers, util);
  if (row.kind == "fleet")
    std::printf("%-28s   fleet batches=%llu/%llu leased=%llu "
                "quarantined=%llu workers=%llu\n",
                "",
                static_cast<unsigned long long>(row.batches_done),
                static_cast<unsigned long long>(row.batches_total),
                static_cast<unsigned long long>(row.batches_leased),
                static_cast<unsigned long long>(row.batches_quarantined),
                static_cast<unsigned long long>(row.fleet_workers));
}

/// Renders every file plus a TOTAL row (when more than one). Returns true
/// when every file parsed and none is still running.
bool render(const std::vector<std::string>& files, bool* any_ok) {
  bool all_done = true;
  Row total;
  total.ok = true;
  total.eta = -1;
  total.kind = "-";
  for (const std::string& path : files) {
    const Row row = read_row(path);
    print_row(path, row);
    if (!row.ok) {
      all_done = false;
      continue;
    }
    *any_ok = true;
    if (row.running) all_done = false;
    total.running |= row.running;
    total.done += row.done;
    total.slice += row.slice;
    total.agree += row.agree;
    total.disagree += row.disagree;
    total.skip += row.skip;
    total.states += row.states;
    total.rate += row.rate;
    total.eta = std::max(total.eta, row.eta);
    total.search_states += row.search_states;
    total.table_keys += row.table_keys;
    total.busy_ns += row.busy_ns;
    total.idle_ns += row.idle_ns;
    total.search_active |= row.search_active;
    total.workers += row.workers;
    total.seq += row.seq;
  }
  if (files.size() > 1) print_row("TOTAL", total);
  return all_done;
}

}  // namespace

int main(int argc, char** argv) {
  bool watch = false;
  double interval = 2.0;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--watch") {
      watch = true;
      // Optional numeric operand: --watch 0.5 status.json. An operand that
      // parses as a number is the interval and must be finite seconds > 0;
      // anything else is the first file.
      if (i + 1 < argc) {
        char* end = nullptr;
        (void)std::strtod(argv[i + 1], &end);
        if (end != argv[i + 1] && *end == '\0') {
          const auto seconds = wormsim::obs::parse_seconds(argv[++i]);
          if (!seconds) {
            std::fprintf(stderr,
                         "wormsim_status: bad value for --watch: '%s' "
                         "(expected finite seconds > 0)\n",
                         argv[i]);
            return 2;
          }
          interval = *seconds;
        }
      }
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      return usage(argv[0]);
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) return usage(argv[0]);

  bool any_ok = false;
  if (!watch) {
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
