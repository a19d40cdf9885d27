#include "cli.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "obs/status.hpp"

namespace wormsim::cli {

constexpr double kMaxSeconds = 86400;  // see Parser::seconds

std::optional<double> parse_fraction(const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v >= 0 && v <= 1)) return std::nullopt;
  return v;
}

std::vector<std::string> split(const char* text) {
  std::vector<std::string> out(1);
  for (; *text != '\0'; ++text) {
    if (*text == ',')
      out.emplace_back();
    else
      out.back() += *text;
  }
  return out;
}

Parser::Parser(std::string tool, std::string synopsis, std::string epilogue)
    : tool_(std::move(tool)),
      synopsis_(std::move(synopsis)),
      epilogue_(std::move(epilogue)) {}

Flag& Parser::flag(const char* name, bool& field, const char* doc) {
  return add({name, "", "", "", doc, [&field, on = !field](const char*) {
                field = on;
                return true;
              }});
}

Flag& Parser::text(const char* name, const char* metavar, std::string& field,
                   const char* doc) {
  return add({name, metavar, "", field, doc, [&field](const char* text) {
                field = text;
                return true;
              }});
}

Flag& Parser::fraction(const char* name, double& field, const char* doc) {
  char fallback[32];
  std::snprintf(fallback, sizeof fallback, "%g", field);
  return add({name, "F", "a number in [0, 1]", fallback, doc,
              [&field](const char* text) {
                const auto v = parse_fraction(text);
                if (v) field = *v;
                return v.has_value();
              }});
}

Flag& Parser::seconds(const char* name, double& field, const char* doc) {
  char fallback[32];
  std::snprintf(fallback, sizeof fallback, "%g", field);
  return add({name, "SECONDS", "finite seconds in (0, 86400]", fallback, doc,
              [&field](const char* text) {
                const auto v = obs::parse_seconds(text);
                if (!v || *v > kMaxSeconds) return false;
                field = *v;
                return true;
              }});
}

Flag& Parser::add(Flag flag) { return flags_.emplace_back(std::move(flag)); }

void Parser::alias(const char* alias, const char* name) {
  aliases_.emplace_back(alias, name);
}

Flag* Parser::find(const std::string& name) {
  std::string canonical = name;
  for (const auto& [alias, target] : aliases_)
    if (alias == name) canonical = target;
  for (Flag& f : flags_)
    if (f.name == canonical) return &f;
  return nullptr;
}

bool Parser::seen(const std::string& name) {
  const Flag* f = find(name);
  return f != nullptr && f->seen;
}

std::string Parser::try_parse(const std::vector<std::string>& args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      return "";
    }
    Flag* f = find(arg);
    if (f == nullptr && operands_ != nullptr && arg.rfind('-', 0) != 0) {
      operands_->push_back(arg);
      continue;
    }
    if (f == nullptr)
      return (arg.rfind('-', 0) == 0 ? "unknown flag '" : "unexpected '") +
             arg + "' (see --help)";
    f->seen = true;
    if (f->metavar.empty()) {
      f->set(nullptr);
      continue;
    }
    const bool has_next = i + 1 < args.size();
    if (f->optional_value) {
      // Taken when it begins like a number (a digit, after at most one
      // sign or dot) or strtod reads it whole ("inf").
      const char* next = has_next ? args[i + 1].c_str() : "";
      char* end = nullptr;
      std::strtod(next, &end);
      const bool lead = next[0] == '-' || next[0] == '+' || next[0] == '.';
      if (!std::isdigit(static_cast<unsigned char>(next[lead ? 1 : 0])) &&
          (end == next || *end != '\0'))
        continue;
    }
    if (!has_next) return arg + " needs a value";
    const std::string& value = args[++i];
    if (!f->set(value.c_str()))
      return "bad value for " + arg + ": '" + value + "' (expected " +
             f->expected + ")";
  }
  return "";
}

void Parser::parse(int argc, char** argv) {
  const std::string failure =
      try_parse(std::vector<std::string>(argv + 1, argv + argc));
  if (help_) {
    std::fputs(usage().c_str(), stdout);
    std::exit(0);
  }
  if (!failure.empty()) std::exit(error(failure));
}

std::string Parser::usage() const {
  std::string out = "usage: " + tool_ + " " + synopsis_ + "\n";
  std::size_t width = 0;
  for (const Flag& f : flags_)
    width = std::max(width, f.name.size() + f.metavar.size() + 4);
  for (const Flag& f : flags_) {
    std::string head = f.name;
    if (!f.metavar.empty())
      head += f.optional_value ? " [" + f.metavar + "]" : " " + f.metavar;
    head.resize(width, ' ');
    out += "  " + head + " " + f.doc +
           (f.fallback.empty() ? "" : " [default: " + f.fallback + "]") + "\n";
  }
  return out + epilogue_;
}

int Parser::error(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n", tool_.c_str(), message.c_str());
  return 2;
}

void status_flags(Parser& parser, std::string& file, double& interval) {
  parser.text("--status-file", "FILE", file,
              "live heartbeat, an atomically rewritten JSON snapshot");
  parser.seconds("--status-interval", interval, "heartbeat refresh interval");
}

}  // namespace wormsim::cli
