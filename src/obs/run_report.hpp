// Machine-readable run summaries.
//
// Every bench or example that wants its results on the perf trajectory
// writes one RunReport as `BENCH_<name>.json`. The record is intentionally
// flat: a few identity labels plus a string->number map, so downstream
// comparison needs no schema knowledge beyond "numbers live in values".
#pragma once

#include <map>
#include <string>

namespace wormsim::obs {

struct RunReport {
  /// Report identity; the default file name is BENCH_<name>.json.
  std::string name;
  /// Free-form classification ("simulation", "search", "bench", ...).
  std::string kind;
  /// Flat numeric results (latency means, state counts, throughput, ...).
  std::map<std::string, double> values;
  /// Flat string annotations (topology, routing algorithm, outcome, ...).
  std::map<std::string, std::string> labels;
};

/// The report as one JSON object.
std::string to_json(const RunReport& report);

/// Where write_report_file publishes `report`: `dir`/BENCH_<name>.json, with
/// dir defaulting to WORMSIM_BENCH_DIR when set, else the working
/// directory. Tools name this path when the write fails.
std::string report_path(const RunReport& report, const std::string& dir = {});

/// Publishes the report at report_path(report, dir) atomically, creating
/// missing parent directories. Returns false on I/O failure.
bool write_report_file(const RunReport& report, const std::string& dir = {});

}  // namespace wormsim::obs
