#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

// GCC 12 issues spurious -Wmaybe-uninitialized warnings for moves out of
// std::optional<Value> (variant alternatives "may be used uninitialized");
// the optionals are always checked before use.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace wormsim::obs::json {

namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

std::string quote(std::string_view s) {
  std::string out;
  append_quoted(out, s);
  return out;
}

void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  append_escaped(out, s);
  out += '"';
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string number_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  return buf;
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  const Object& obj = as_object();
  const auto it = obj.find(std::string(key));
  return it == obj.end() ? nullptr : &it->second;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> run() {
    auto v = value();
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::optional<Value> value() {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': {
        auto s = string();
        if (!s) return std::nullopt;
        return Value(std::move(*s));
      }
      case 't': return literal("true") ? std::optional<Value>(Value(true))
                                       : std::nullopt;
      case 'f': return literal("false") ? std::optional<Value>(Value(false))
                                        : std::nullopt;
      case 'n': return literal("null") ? std::optional<Value>(Value())
                                       : std::nullopt;
      default: return parse_number();
    }
  }

  std::optional<Value> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return std::nullopt;
    const std::string_view lit = text_.substr(start, pos_ - start);
    // Non-negative integer literals that fit in u64 are kept exact; a
    // double would silently round counters above 2^53.
    if (lit.find_first_of(".eE-") == std::string_view::npos) {
      std::uint64_t exact = 0;
      const auto [uend, uec] =
          std::from_chars(lit.data(), lit.data() + lit.size(), exact);
      if (uec == std::errc{} && uend == lit.data() + lit.size())
        return Value(exact);
    }
    double out = 0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, out);
    if (ec != std::errc{} || end != text_.data() + pos_) return std::nullopt;
    return Value(out);
  }

  std::optional<std::string> string() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return std::nullopt;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return std::nullopt;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
              else
                return std::nullopt;
            }
            // Re-encode as UTF-8 (surrogate pairs not handled; the
            // exporters never emit non-BMP text).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: return std::nullopt;
        }
      } else {
        out += c;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Value> array() {
    if (!consume('[')) return std::nullopt;
    Array items;
    if (consume(']')) return Value(std::move(items));
    while (true) {
      auto v = value();
      if (!v) return std::nullopt;
      items.push_back(std::move(*v));
      if (consume(']')) return Value(std::move(items));
      if (!consume(',')) return std::nullopt;
    }
  }

  std::optional<Value> object() {
    if (!consume('{')) return std::nullopt;
    Object members;
    if (consume('}')) return Value(std::move(members));
    while (true) {
      skip_ws();
      auto key = string();
      if (!key) return std::nullopt;
      if (!consume(':')) return std::nullopt;
      auto v = value();
      if (!v) return std::nullopt;
      members.insert_or_assign(std::move(*key), std::move(*v));
      if (consume('}')) return Value(std::move(members));
      if (!consume(',')) return std::nullopt;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<Value> parse(std::string_view text) {
  return Parser(text).run();
}

}  // namespace wormsim::obs::json
