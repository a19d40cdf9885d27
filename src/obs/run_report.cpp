#include "obs/run_report.hpp"

#include <cstdlib>

#include "obs/json.hpp"
#include "util/file.hpp"

namespace wormsim::obs {

std::string to_json(const RunReport& report) {
  std::string out = "{\"name\":" + json::quote(report.name) +
                    ",\"kind\":" + json::quote(report.kind);
  out += ",\"labels\":{";
  bool first = true;
  for (const auto& [key, value] : report.labels) {
    if (!first) out += ',';
    first = false;
    out += json::quote(key) + ":" + json::quote(value);
  }
  out += "},\"values\":{";
  first = true;
  for (const auto& [key, value] : report.values) {
    if (!first) out += ',';
    first = false;
    out += json::quote(key) + ":" + json::number(value);
  }
  out += "}}";
  return out;
}

std::string report_path(const RunReport& report, const std::string& dir) {
  std::string path = dir;
  if (path.empty()) {
    if (const char* env = std::getenv("WORMSIM_BENCH_DIR")) path = env;
  }
  if (!path.empty() && path.back() != '/') path += '/';
  return path + "BENCH_" + report.name + ".json";
}

bool write_report_file(const RunReport& report, const std::string& dir) {
  return util::write_file_atomic(report_path(report, dir),
                                 to_json(report) + "\n");
}

}  // namespace wormsim::obs
