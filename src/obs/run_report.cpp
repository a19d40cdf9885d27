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

bool write_report_file(const RunReport& report, const std::string& dir) {
  std::string directory = dir;
  if (directory.empty()) {
    if (const char* env = std::getenv("WORMSIM_BENCH_DIR")) directory = env;
  }
  std::string path = directory;
  if (!path.empty() && path.back() != '/') path += '/';
  path += "BENCH_" + report.name + ".json";
  return util::write_file_atomic(path, to_json(report) + "\n");
}

}  // namespace wormsim::obs
