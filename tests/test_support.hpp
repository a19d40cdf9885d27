// Helpers shared by the test suites: private scratch paths, whole-file
// reads, and the reader for the markdown field tables that the schema
// tests check the manuals against.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

namespace wormsim::test {

/// A fresh path `<name>.<pid>` under the system temp directory (a file or
/// a directory, as the caller uses it), removed again when the process
/// exits. The pid keeps suites run at the same time from different build
/// trees out of each other's files.
inline std::string temp_dir(const std::string& name) {
  static struct Created {
    std::vector<std::filesystem::path> paths;
    ~Created() {
      std::error_code ec;
      for (const auto& path : paths) std::filesystem::remove_all(path, ec);
    }
  } created;
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      (name + "." + std::to_string(::getpid()));
  std::filesystem::remove_all(path);
  created.paths.push_back(path);
  return path.string();
}

/// The whole file; empty when it cannot be read.
inline std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

inline std::string trim(const std::string& text) {
  const auto begin = text.find_first_not_of(" \t");
  if (begin == std::string::npos) return "";
  return text.substr(begin, text.find_last_not_of(" \t") - begin + 1);
}

struct DocField {
  std::string name;      ///< between backticks in the first cell
  std::string presence;  ///< third cell: "always", "optional", "family", ...
};

/// Rows of the first markdown table after `heading` whose first cell is a
/// back-ticked field name; stops at the next heading.
inline std::vector<DocField> parse_table(const std::string& doc,
                                         const std::string& heading) {
  std::vector<DocField> fields;
  const auto at = doc.find(heading);
  if (at == std::string::npos) return fields;
  std::istringstream in(doc.substr(at));
  std::string line;
  std::getline(in, line);  // the heading itself
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '#') break;  // next section
    if (line.rfind("| `", 0) != 0) continue;
    const auto name_end = line.find('`', 3);
    if (name_end == std::string::npos) continue;
    // Cells: | `name` | type | presence | meaning |
    std::vector<std::string> cells;
    std::size_t start = 1;
    for (std::size_t i = 1; i < line.size(); ++i) {
      if (line[i] != '|') continue;
      cells.push_back(trim(line.substr(start, i - start)));
      start = i + 1;
    }
    if (cells.size() < 3) continue;
    fields.push_back({line.substr(3, name_end - 3), cells[2]});
  }
  return fields;
}

inline const DocField* find_field(const std::vector<DocField>& fields,
                                  const std::string& name) {
  for (const DocField& f : fields)
    if (f.name == name) return &f;
  return nullptr;
}

}  // namespace wormsim::test
