// Shared command-line parser for the wormsim tools.
//
// A tool declares each flag once: name, value type, range and doc line,
// bound to the config field whose initializer is the default. The parser
// enforces the range, rejects anything else with
// "<tool>: bad value for <flag>: '<text>' (expected ...)" and exit 2, and
// generates the --help text from the same declarations. There are no
// subcommands, environment variables or config files.
#pragma once

#include <concepts>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/text.hpp"

namespace wormsim::cli {

/// A number in [0, 1] (so never NaN or infinite).
[[nodiscard]] std::optional<double> parse_fraction(const char* text);
/// Comma-separated items; "" and "a,,b" keep their empty items.
[[nodiscard]] std::vector<std::string> split(const char* text);

/// One declared flag. `set` parses and stores a value, returning false
/// when the text is not what `expected` describes.
struct Flag {
  std::string name;      ///< "--seed"
  std::string metavar;   ///< value placeholder in --help; empty for a switch
  std::string expected;  ///< the accepted values, for the error message
  std::string fallback;  ///< the default shown by --help (may be empty)
  std::string doc;
  std::function<bool(const char*)> set;
  /// The value may be left out: the next argument is taken as the value
  /// only when it begins like a number.
  bool optional_value = false;
  bool seen = false;  ///< given on the command line
};

class Parser {
 public:
  /// `synopsis` follows the tool name on the usage line; `epilogue` (exit
  /// codes, manual pointer) ends the --help text.
  Parser(std::string tool, std::string synopsis, std::string epilogue);

  /// A switch: its presence flips `field` from its default.
  Flag& flag(const char* name, bool& field, const char* doc);
  Flag& text(const char* name, const char* metavar, std::string& field,
             const char* doc);
  /// A decimal integer in [min, max].
  template <std::integral T>
  Flag& integer(const char* name, T& field, const char* doc,
                std::uint64_t min = 0,
                std::uint64_t max = static_cast<std::uint64_t>(
                    std::numeric_limits<T>::max())) {
    const std::string range = "an integer in [" + std::to_string(min) + ", " +
                              std::to_string(max) + "]";
    return add({name, "N", range, std::to_string(field), doc,
                [&field, min, max](const char* text) {
                  const auto v = util::parse_u64(text);
                  if (!v || *v < min || *v > max) return false;
                  field = static_cast<T>(*v);
                  return true;
                }});
  }
  /// A number in [0, 1].
  Flag& fraction(const char* name, double& field, const char* doc);
  /// Finite seconds in (0, 86400]: a day at most, since larger values
  /// would overflow the nanosecond clocks the waits convert to.
  Flag& seconds(const char* name, double& field, const char* doc);
  /// One name out of a fixed set.
  template <class T>
  Flag& choice(const char* name, T& field,
               std::vector<std::pair<std::string, T>> names, const char* doc) {
    std::string all, fallback;
    for (const auto& [word, value] : names) {
      all += (all.empty() ? "" : "|") + word;
      if (value == field) fallback = word;
    }
    return add({name, all, all, fallback, doc,
                [&field, names](const char* text) {
                  for (const auto& [word, value] : names) {
                    if (word != text) continue;
                    field = value;
                    return true;
                  }
                  return false;
                }});
  }
  /// Any other value shape; `flag.set` parses and validates.
  Flag& add(Flag flag);
  /// A second spelling of the declared flag `name`.
  void alias(const char* alias, const char* name);
  /// Collects non-flag arguments into `out` (rejected otherwise).
  void operands(std::vector<std::string>& out) { operands_ = &out; }

  /// Parses argv[1..argc). --help prints the usage and exits 0; an error
  /// prints its reason and exits 2.
  void parse(int argc, char** argv);
  /// Parses `args`; returns the error, empty on success. --help stops
  /// parsing and sets help_requested().
  [[nodiscard]] std::string try_parse(const std::vector<std::string>& args);
  [[nodiscard]] bool help_requested() const { return help_; }
  [[nodiscard]] bool seen(const std::string& name);
  [[nodiscard]] std::string usage() const;
  /// Prints "<tool>: <message>" and returns the usage exit code 2.
  int error(const std::string& message) const;

 private:
  Flag* find(const std::string& name);

  std::string tool_, synopsis_, epilogue_;
  std::deque<Flag> flags_;  // a deque keeps returned references valid
  std::vector<std::pair<std::string, std::string>> aliases_;
  std::vector<std::string>* operands_ = nullptr;
  bool help_ = false;
};

/// --status-file/--status-interval: the live heartbeat every long-running
/// tool offers (docs/observability.md).
void status_flags(Parser& parser, std::string& file, double& interval);

}  // namespace wormsim::cli
