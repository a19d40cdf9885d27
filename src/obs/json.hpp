// Minimal JSON support for the observability layer.
//
// The exporters (metrics snapshots, trace files, run reports) need only a
// writer; the tests additionally need to parse what was written to check
// structural validity. Rather than pull in a dependency, this header
// provides a string escaper plus a small recursive-descent parser producing
// a variant tree. The parser accepts standard JSON; numbers are held as
// double, except non-negative integer literals that fit in 64 bits, which
// are preserved exactly (counters routinely exceed 2^53, where doubles
// start dropping low-order bits).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace wormsim::obs::json {

/// Escapes `s` for inclusion inside a JSON string literal (no surrounding
/// quotes). Control characters become \u00XX.
std::string escape(std::string_view s);

/// `"escaped"` — escape() with surrounding quotes.
std::string quote(std::string_view s);

/// Appends quote(s) to `out`, with no temporary string.
void append_quoted(std::string& out, std::string_view s);

/// Formats a double as a JSON number: integral values print without a
/// fractional part, non-finite values (invalid JSON) print as null.
std::string number(double v);

/// Formats an unsigned 64-bit counter as an exact JSON integer. number()
/// would round values above 2^53 through the double mantissa; every u64
/// emitted by the exporters goes through this instead.
std::string number_u64(std::uint64_t v);

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

/// A parsed JSON value. std::map keeps object keys ordered, which the tests
/// rely on for deterministic iteration.
class Value {
 public:
  using Storage = std::variant<std::nullptr_t, bool, double, std::uint64_t,
                               std::string, Array, Object>;

  Value() : storage_(nullptr) {}
  template <typename T>
  Value(T v) : storage_(std::move(v)) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool is_null() const {
    return std::holds_alternative<std::nullptr_t>(storage_);
  }
  [[nodiscard]] bool is_bool() const {
    return std::holds_alternative<bool>(storage_);
  }
  [[nodiscard]] bool is_number() const {
    return std::holds_alternative<double>(storage_) ||
           std::holds_alternative<std::uint64_t>(storage_);
  }
  /// True when the literal was a non-negative integer preserved exactly.
  [[nodiscard]] bool is_exact_u64() const {
    return std::holds_alternative<std::uint64_t>(storage_);
  }
  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(storage_);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<Array>(storage_);
  }
  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<Object>(storage_);
  }

  [[nodiscard]] bool as_bool() const { return std::get<bool>(storage_); }
  [[nodiscard]] double as_number() const {
    if (const auto* u = std::get_if<std::uint64_t>(&storage_))
      return static_cast<double>(*u);
    return std::get<double>(storage_);
  }
  /// The exact value of an is_exact_u64() literal. Any other number (a
  /// negative, a fraction, an exponent form or an out-of-range integer) has
  /// no u64 value; as_u64 throws std::bad_variant_access on it, like the
  /// other accessors on a value of the wrong type.
  [[nodiscard]] std::uint64_t as_u64() const {
    return std::get<std::uint64_t>(storage_);
  }
  [[nodiscard]] const std::string& as_string() const {
    return std::get<std::string>(storage_);
  }
  [[nodiscard]] const Array& as_array() const {
    return std::get<Array>(storage_);
  }
  [[nodiscard]] const Object& as_object() const {
    return std::get<Object>(storage_);
  }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;

 private:
  Storage storage_;
};

/// Parses one complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected). nullopt on any syntax error.
std::optional<Value> parse(std::string_view text);

}  // namespace wormsim::obs::json
