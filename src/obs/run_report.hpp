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

/// Publishes `dir`/BENCH_<name>.json atomically, creating missing parent
/// directories (dir defaults to the working directory; set
/// WORMSIM_BENCH_DIR to redirect). Returns false on I/O failure.
bool write_report_file(const RunReport& report, const std::string& dir = {});

}  // namespace wormsim::obs
